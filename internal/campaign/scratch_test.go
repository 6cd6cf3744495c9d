package campaign

import (
	"reflect"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/workload"
)

// TestCampaignReportSurvivesScratchReuse: a campaign's report does not
// depend on how its seeds share scratch sets — the buggy counter's
// report is the same for 1, 2 and 4 workers, and for a second campaign
// that runs right after on the sets the first one pooled.
func TestCampaignReportSurvivesScratchReuse(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		rep, err := Run(Config{
			Workload:   workload.LockedCounter(4, 6, 1),
			Model:      memmodel.WO,
			Seeds:      32,
			RetireProb: 0.15,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.RaceFree() {
			t.Fatalf("%d workers: %d failed seeds, %d racy executions", workers, rep.Failed, rep.Racy)
		}
		rep.Config = Config{} // compare the outcome only
		return rep
	}
	want := run(1)
	for _, workers := range []int{2, 4, 2} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: report differs from 1 worker's:\n%+v\nwant\n%+v", workers, got, want)
		}
	}
}

// maxSeedAllocs bounds the heap allocations of one campaign seed —
// simulate, build the trace, analyze — through warmed arenas: 15
// measured on the buggy counter, plus 4 of slack.
const maxSeedAllocs = 19

// TestSeedAllocations: a campaign seed reuses every slab it builds, so
// once its scratch set is warm the seed allocates a small fixed number
// of objects (the Analysis and its partitions), not a number growing
// with the execution.
func TestSeedAllocations(t *testing.T) {
	cfg := Config{Workload: workload.LockedCounter(4, 6, 1), Model: memmodel.WO, RetireProb: 0.15}
	sc := new(scratch)
	for seed := range 8 {
		if _, _, err := sc.analyze(cfg, seed, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, a, err := sc.analyze(cfg, 1, nil); err != nil || a.RaceFree() {
			t.Fatalf("seed 1: %v, race-free %v", err, err == nil && a.RaceFree())
		}
	})
	t.Logf("%.1f allocations per seed", allocs)
	if allocs > maxSeedAllocs {
		t.Errorf("a warm campaign seed allocated %.1f times, want at most %d", allocs, maxSeedAllocs)
	}
}
