package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/obs"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/workload"
)

func TestCampaignRaceFree(t *testing.T) {
	rep, err := Run(Config{
		Workload: workload.LockedCounter(3, 3, -1),
		Model:    memmodel.WO,
		Seeds:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RaceFree() || rep.Racy != 0 || len(rep.Races) != 0 {
		t.Fatalf("clean campaign racy: %+v", rep)
	}
	if rep.Executions != 30 {
		t.Fatalf("executions = %d", rep.Executions)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data races") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

func TestCampaignFindsInjectedBug(t *testing.T) {
	rep, err := Run(Config{
		Workload: workload.LockedCounter(3, 4, 1),
		Model:    memmodel.WO,
		Seeds:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceFree() {
		t.Fatal("buggy campaign race-free")
	}
	if len(rep.Races) == 0 {
		t.Fatal("no aggregated races")
	}
	// Every aggregated race involves the counter (location 0).
	for _, st := range rep.Races {
		if st.Race.Loc != 0 {
			t.Fatalf("unexpected race location: %v", st.Race)
		}
		if st.Occurrences <= 0 || st.Occurrences > rep.Executions {
			t.Fatalf("bad occurrence count: %+v", st)
		}
		if st.FirstPartition > st.Occurrences {
			t.Fatalf("first-partition count exceeds occurrences: %+v", st)
		}
		if st.ExampleSeed < 0 || st.ExampleSeed >= int64(rep.Executions) {
			t.Fatalf("bad example seed: %+v", st)
		}
	}
	// Sorted most frequent first.
	for i := 1; i < len(rep.Races); i++ {
		if rep.Races[i-1].Occurrences < rep.Races[i].Occurrences {
			t.Fatal("races not sorted by occurrences")
		}
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replay") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

// The report must not depend on worker parallelism.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Report {
		rep, err := Run(Config{
			Workload: workload.ProducerConsumer(4, false),
			Model:    memmodel.RCsc,
			Seeds:    25,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Config = Config{} // ignore config in comparison
		return rep
	}
	a, b := mk(1), mk(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ across worker counts:\n%+v\n%+v", a, b)
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return len(p), nil
}

// TestRenderPropagatesWriteErrors: every write in the campaign report
// surfaces its error.
func TestRenderPropagatesWriteErrors(t *testing.T) {
	racy, err := Run(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(Config{
		Workload: workload.LockedCounter(3, 3, -1),
		Model:    memmodel.WO,
		Seeds:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if err := racy.Render(&failWriter{n: n}); err == nil {
			t.Errorf("racy report with %d allowed writes: error swallowed", n)
		}
	}
	for n := 0; n < 2; n++ {
		if err := clean.Render(&failWriter{n: n}); err == nil {
			t.Errorf("clean report with %d allowed writes: error swallowed", n)
		}
	}
}

// TestCampaignSurvivesFailingSeeds: a seed that errors must not abort the
// campaign — the other seeds' evidence is kept and the failure is counted
// and surfaced in the report. Only an all-seeds failure is an error.
func TestCampaignSurvivesFailingSeeds(t *testing.T) {
	realRun := simRun
	defer func() { simRun = realRun }()
	injected := errors.New("injected simulator fault")
	simRun = func(p *program.Program, cfg sim.Config, ar *sim.Arena) (*sim.Result, error) {
		if cfg.Seed%5 == 2 { // seeds 2, 7, 12, 17
			return nil, injected
		}
		return realRun(p, cfg, ar)
	}

	const seeds = 20
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{})
	if err != nil {
		t.Fatalf("campaign aborted on a partial failure: %v", err)
	}
	if rep.Failed != 4 {
		t.Fatalf("Failed = %d, want 4", rep.Failed)
	}
	if rep.Executions != seeds-4 {
		t.Fatalf("Executions = %d, want %d", rep.Executions, seeds-4)
	}
	if !strings.Contains(rep.FirstError, "seed 2") || !strings.Contains(rep.FirstError, "injected simulator fault") {
		t.Fatalf("FirstError = %q", rep.FirstError)
	}
	// Surviving seeds still aggregate: the buggy workload races.
	if rep.RaceFree() || len(rep.Races) == 0 {
		t.Fatalf("surviving seeds discarded: %+v", rep)
	}
	for _, st := range rep.Races {
		if st.ExampleSeed%5 == 2 {
			t.Fatalf("failed seed cited as example: %+v", st)
		}
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4 seeds failed") {
		t.Fatalf("report omits failures:\n%s", buf.String())
	}

	// All seeds failing is the only fatal case.
	simRun = func(p *program.Program, cfg sim.Config, ar *sim.Arena) (*sim.Result, error) {
		return nil, injected
	}
	if _, err := Run(Config{Workload: workload.LockedCounter(3, 3, 1), Model: memmodel.WO, Seeds: 5}); err == nil {
		t.Fatal("all-seeds failure returned no error")
	}
}

func TestCampaignErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := RunWithOptions(Config{}, Options{}); err == nil {
		t.Fatal("nil workload accepted by RunWithOptions")
	}
}

// TestCampaignProgressCallback: progress reports every seed exactly once,
// strictly increasing, ending at the total — even with many workers.
func TestCampaignProgressCallback(t *testing.T) {
	const seeds = 24
	var calls []int
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  8,
	}, Options{
		Progress: func(done, total int) {
			if total != seeds {
				t.Errorf("total = %d, want %d", total, seeds)
			}
			calls = append(calls, done) // serialized by the campaign
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != seeds {
		t.Fatalf("executions = %d", rep.Executions)
	}
	if len(calls) != seeds {
		t.Fatalf("progress called %d times, want %d", len(calls), seeds)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress sequence %v not strictly increasing", calls)
		}
	}
}

// TestCampaignTelemetry: an enabled registry collects per-seed phases and
// aggregate counters; run with -race this also exercises concurrent
// reporting from the worker pool.
func TestCampaignTelemetry(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()
	const seeds = 16
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.executions"]; got != seeds {
		t.Errorf("campaign.executions = %d, want %d", got, seeds)
	}
	if got := snap.Counters["campaign.racy_executions"]; got != int64(rep.Racy) {
		t.Errorf("campaign.racy_executions = %d, want %d", got, rep.Racy)
	}
	if got := snap.Phases["campaign.seed"].Count; got != seeds {
		t.Errorf("campaign.seed phase count = %d, want %d", got, seeds)
	}
	if snap.Phases["campaign.run"].Count != 1 {
		t.Errorf("campaign.run phase count = %d, want 1", snap.Phases["campaign.run"].Count)
	}
	if snap.Counters["detect.analyses"] != seeds {
		t.Errorf("detect.analyses = %d, want %d", snap.Counters["detect.analyses"], seeds)
	}
}

func TestCampaignExampleSeedPrefersFirstPartition(t *testing.T) {
	rep, err := Run(Config{
		Workload: workload.RaceChain(3),
		Model:    memmodel.WO,
		Seeds:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stage-0 race is always in a first partition; its stats must say so.
	found := false
	for _, st := range rep.Races {
		if st.Race.Loc == 0 {
			found = true
			if st.FirstPartition != st.Occurrences {
				t.Fatalf("stage-0 race not always first: %+v", st)
			}
		} else if st.FirstPartition != 0 {
			t.Fatalf("later stage race marked first: %+v", st)
		}
	}
	if !found {
		t.Fatal("stage-0 race missing")
	}
}

// TestCampaignFlightSeedSummaries: with a flight recorder attached, the
// campaign emits exactly one seed summary per seed — aggregate counts
// for successes, the error for failures — and nothing else (no per-seed
// event/edge dumps).
func TestCampaignFlightSeedSummaries(t *testing.T) {
	realRun := simRun
	defer func() { simRun = realRun }()
	injected := errors.New("injected simulator fault")
	simRun = func(p *program.Program, cfg sim.Config, ar *sim.Arena) (*sim.Result, error) {
		if cfg.Seed == 3 {
			return nil, injected
		}
		return realRun(p, cfg, ar)
	}

	const seeds = 12
	fr := export.NewRecorder()
	rep, err := RunWithOptions(Config{
		Workload: workload.RaceChain(2),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	recs := fr.Records()
	bySeed := map[int64]*export.SeedRec{}
	for _, rec := range recs {
		if rec.Kind != export.KindSeed {
			t.Fatalf("campaign emitted a %q record; only seed summaries belong in a hunt log", rec.Kind)
		}
		if bySeed[rec.Seed.Seed] != nil {
			t.Fatalf("seed %d summarized twice", rec.Seed.Seed)
		}
		bySeed[rec.Seed.Seed] = rec.Seed
	}
	if len(bySeed) != seeds {
		t.Fatalf("%d seed summaries for %d seeds", len(bySeed), seeds)
	}
	racy := 0
	for seed := int64(0); seed < seeds; seed++ {
		s := bySeed[seed]
		if s == nil {
			t.Fatalf("seed %d missing from flight log", seed)
		}
		if seed == 3 {
			if !s.Failed || !strings.Contains(s.Error, "injected") {
				t.Fatalf("failed seed summary wrong: %+v", s)
			}
			continue
		}
		if s.Failed || s.Error != "" {
			t.Fatalf("healthy seed %d marked failed: %+v", seed, s)
		}
		if s.Events == 0 || s.DurNS <= 0 {
			t.Fatalf("seed %d summary lacks substance: %+v", seed, s)
		}
		if s.Racy {
			racy++
			if s.DataRaces == 0 || s.Partitions == 0 || s.FirstPartitions == 0 {
				t.Fatalf("racy seed %d summary inconsistent: %+v", seed, s)
			}
		}
	}
	if racy != rep.Racy {
		t.Errorf("flight log says %d racy seeds, report says %d", racy, rep.Racy)
	}
}

// TestCampaignProgressCoalescing pins the callback count under
// ProgressEvery: with N seeds and every=E the callback fires
// ceil-free — once per E completions plus the guaranteed final call.
func TestCampaignProgressCoalescing(t *testing.T) {
	const seeds = 24
	var calls []int
	_, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  8,
	}, Options{
		ProgressEvery: 10,
		Progress: func(done, total int) {
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic cadence: fires at 10, 20, and the final 24 — no
	// more, no fewer, regardless of worker interleaving.
	want := []int{10, 20, 24}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("coalesced progress calls = %v, want %v", calls, want)
	}
}

// TestCampaignProgressFinalAlwaysFires: even with a coalescing stride
// coarser than the campaign, the last completion reports done == total.
func TestCampaignProgressFinalAlwaysFires(t *testing.T) {
	const seeds = 7
	var calls []int
	_, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{
		ProgressEvery: 1000,
		Progress:      func(done, total int) { calls = append(calls, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calls, []int{seeds}) {
		t.Fatalf("calls = %v, want just the final %d", calls, seeds)
	}
}

// TestCampaignPublisherEvents: a subscribed publisher sees one race
// event per distinct static race (first occurrence) and progress
// reaching done == total with a consistent racy tally.
func TestCampaignPublisherEvents(t *testing.T) {
	pub := obs.NewPublisher()
	sub := pub.Subscribe()
	defer sub.Close()

	const seeds = 16
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceFree() {
		t.Fatal("expected the buggy workload to race")
	}

	evs, dropped := sub.Poll()
	if dropped != 0 {
		t.Fatalf("dropped %d events with the default ring", dropped)
	}
	raceSeen := map[string]int{}
	var lastProgress *obs.Event
	for i := range evs {
		ev := evs[i]
		switch ev.Kind {
		case obs.EventRace:
			raceSeen[ev.Race]++
		case obs.EventProgress:
			lastProgress = &evs[i]
		}
	}
	if len(raceSeen) != len(rep.Races) {
		t.Fatalf("published %d distinct races, report has %d", len(raceSeen), len(rep.Races))
	}
	for race, n := range raceSeen {
		if n != 1 {
			t.Errorf("race %q published %d times, want once", race, n)
		}
	}
	if lastProgress == nil {
		t.Fatal("no progress events published")
	}
	if lastProgress.Done != seeds || lastProgress.Total != seeds {
		t.Fatalf("final progress = %d/%d, want %d/%d",
			lastProgress.Done, lastProgress.Total, seeds, seeds)
	}
	if lastProgress.Racy != rep.Racy || lastProgress.DistinctRaces != len(rep.Races) {
		t.Fatalf("final progress tallies %+v disagree with report (racy=%d distinct=%d)",
			lastProgress, rep.Racy, len(rep.Races))
	}
}

// TestCampaignLiveCounters: with the registry enabled, the live
// per-seed counters and gauges settle at the report's values.
func TestCampaignLiveCounters(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()
	const seeds = 12
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 3, 1),
		Model:    memmodel.WO,
		Seeds:    seeds,
		Workers:  4,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.seeds_done"]; got != seeds {
		t.Errorf("campaign.seeds_done = %d, want %d", got, seeds)
	}
	if got := snap.Gauges["campaign.seeds_total"]; got != seeds {
		t.Errorf("campaign.seeds_total = %d, want %d", got, seeds)
	}
	if got := snap.Counters["campaign.seeds_racy"]; got != int64(rep.Racy) {
		t.Errorf("campaign.seeds_racy = %d, want %d", got, rep.Racy)
	}
	if got := snap.Gauges["campaign.races_distinct"]; got != int64(len(rep.Races)) {
		t.Errorf("campaign.races_distinct = %d, want %d", got, len(rep.Races))
	}
	if got := snap.Counters["campaign.seeds_failed"]; got != 0 {
		t.Errorf("campaign.seeds_failed = %d, want 0", got)
	}
}

// A traced campaign must keep every racy seed's trace, retrievable
// under "seed-N", with the simulate and analyze spans recorded; clean
// seeds are sampled out.
func TestCampaignTracing(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(true)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Registry: reg, MinSlowSamples: 1 << 30})
	rep, err := RunWithOptions(Config{
		Workload: workload.LockedCounter(3, 4, 1),
		Model:    memmodel.WO,
		Seeds:    40,
	}, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceFree() {
		t.Fatal("buggy campaign race-free")
	}
	// Each example seed is a known-racy execution; its trace must be
	// kept with the simulate and analyze spans in the timeline.
	for _, st := range rep.Races {
		key := fmt.Sprintf("seed-%d", st.ExampleSeed)
		ts, ok := tracer.Lookup(key)
		if !ok {
			t.Errorf("racy seed %d has no kept trace", st.ExampleSeed)
			continue
		}
		if !ts.Finished || !ts.Outcome.Racy {
			t.Errorf("seed %d outcome = %+v", st.ExampleSeed, ts.Outcome)
		}
		seen := map[string]bool{}
		for _, sp := range ts.Spans {
			seen[sp.Name] = true
		}
		if !seen["simulate"] || !seen["analyze"] {
			t.Errorf("seed %d trace missing phases: %v", st.ExampleSeed, seen)
		}
	}
	// With slow sampling disabled, exactly the racy executions stay kept.
	if kept := len(tracer.Keys()); kept != rep.Racy {
		t.Errorf("tracer keeps %d traces, want %d racy executions", kept, rep.Racy)
	}
	if got := reg.Counter("trace.streams_traced").Value(); got != 40 {
		t.Errorf("streams_traced = %d, want 40", got)
	}
}
