package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/oracle"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// core.Analyze computes G′'s components over an implicit adjacency —
// hb1 plus each event's po-minimal race partner per CPU, read off the
// race sweep's windows — and never stores a synchronization race. The
// test-only oracle writes G′ down explicitly from every race. The two
// must agree on the data races, the sync-race count, the partitions
// (component ids masked), the first partitions, the partition order,
// the compressed partner edges, and the event-level affect relation of
// Definition 3.3, on the crosscheck generators and the frozen corpus.
func TestImplicitVsExplicitAugmentedGraph(t *testing.T) {
	type input struct {
		label string
		tr    *trace.Trace
	}
	var inputs []input
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(rng, trial%3 != 0)
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (%s, %v, seed %d)", trial, w.Name, model, seed)
		tr := trace.FromExecution(r.Exec)
		inputs = append(inputs, input{label, tr}, input{label + " mixed", mixSyncLocations(rng, tr)})
	}
	for i, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("corpus %d (%s, %v, seed %d)", i, c.Workload.Name, c.Model, c.Seed), trace.FromExecution(r.Exec)})
	}
	racy, syncy, mixed := 0, 0, 0
	for _, in := range inputs {
		a := checkAgainstGPrimeOracle(t, in.label, in.tr, core.Options{})
		if !a.RaceFree() {
			racy++
		}
		if a.SyncRaces > 0 {
			syncy++
		}
		mixed += mixedRaces(a)
		o := oracle.NewGPrime(in.tr, memmodel.ConservativePairing)
		for ri, x := range a.Races {
			for rj, y := range a.Races {
				want := false
				for _, u := range []core.EventID{x.A, x.B} {
					for _, v := range []core.EventID{y.A, y.B} {
						want = want || o.Reach.Reaches(int(u), int(v))
					}
				}
				if got := a.Affects(ri, rj); got != want {
					t.Fatalf("%s: Affects(%d,%d) = %v, oracle %v", in.label, ri, rj, got, want)
				}
			}
		}
	}
	if racy < 40 || syncy < 40 || mixed < 40 {
		t.Fatalf("only %d racy and %d sync-racy traces and %d sync–computation races crosschecked; generators drifted",
			racy, syncy, mixed)
	}
}

// mixSyncLocations returns a copy of tr in which about a third of the
// computation events also read or write a synchronization location.
// The generators keep data and synchronization locations apart, so
// without this the sweep's sync–computation paths would go unchecked.
func mixSyncLocations(rng *rand.Rand, tr *trace.Trace) *trace.Trace {
	var syncLocs []int
	for _, evs := range tr.PerCPU {
		for _, ev := range evs {
			if ev.Kind == trace.Sync && !slices.Contains(syncLocs, int(ev.Loc)) {
				syncLocs = append(syncLocs, int(ev.Loc))
			}
		}
	}
	out := *tr
	out.PerCPU = make([][]*trace.Event, len(tr.PerCPU))
	for c, evs := range tr.PerCPU {
		for _, ev := range evs {
			if ev.Kind == trace.Comp && len(syncLocs) > 0 && rng.Intn(3) == 0 {
				cp := *ev
				cp.Reads, cp.Writes = ev.Reads.Clone(), ev.Writes.Clone()
				loc := syncLocs[rng.Intn(len(syncLocs))]
				if rng.Intn(2) == 0 {
					cp.Reads.Add(loc)
				} else {
					cp.Writes.Add(loc)
				}
				ev = &cp
			}
			out.PerCPU[c] = append(out.PerCPU[c], ev)
		}
	}
	return &out
}

// mixedRaces counts the data races between a synchronization event and
// a computation event.
func mixedRaces(a *core.Analysis) int {
	n := 0
	for _, r := range a.Races {
		if (a.Event(r.A).Kind == trace.Sync) != (a.Event(r.B).Kind == trace.Sync) {
			n++
		}
	}
	return n
}

// TestPartnerFallbackBeyond32CPUs is the >32-CPU G′ regression test:
// G′'s partner table is 36 entries wide on a 36-CPU racy trace, past the
// 32-bit per-event CPU mask the partner lists once depended on (their
// "fallback" was a list scan beyond it). The analysis must still match
// the explicit-G′ oracle, with races on CPUs past 31 present; Workers
// varies but is ignored.
func TestPartnerFallbackBeyond32CPUs(t *testing.T) {
	w := workload.Random(workload.RandomParams{
		Seed: 3, CPUs: 36, Segments: 2, OpsPerSegment: 2, Locks: 2,
		UnlockedFraction: 0.5, SharedFraction: 0.8,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 7, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.FromExecution(r.Exec)
	if tr.NumCPUs <= 32 {
		t.Fatalf("trace has %d CPUs, want > 32", tr.NumCPUs)
	}
	for _, workers := range []int{1, 3} {
		a := checkAgainstGPrimeOracle(t, fmt.Sprintf("36 CPUs, workers %d", workers), tr, core.Options{Workers: workers})
		if len(a.Races) == 0 || a.SyncRaces == 0 {
			t.Fatalf("36-CPU trace: %d data races, %d sync races; want both", len(a.Races), a.SyncRaces)
		}
		// Partners on CPUs past 31 are what the bitmask could not hold.
		high := false
		for _, r := range a.Races {
			high = high || a.Ref(r.A).CPU >= 32 || a.Ref(r.B).CPU >= 32
		}
		if !high {
			t.Fatal("no race involves a CPU past 31; the fallback is not exercised")
		}
	}
}
