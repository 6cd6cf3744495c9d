package crosscheck

import (
	"math/rand"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/graph"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// The vector-clock timestamps (one topological pass assigns every event
// an O(p) timestamp; ordering queries become epoch compares) must agree
// with the explicit transitive closure of the same hb1 graph
// (graph.NewReachability) on the 60-trace corpus the augmented-graph
// crosscheck uses: every event pair's ordering, through the timestamp
// layer and through the analysis's HBReaches, and every (event, CPU)
// window the sweep and the provenance certificates are built from.
func TestVCTimestampsVsExplicitClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	racyTraces := 0
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(rng, trial%3 != 0)
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		a, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.RaceFree() {
			racyTraces++
		}
		cl := graph.NewReachability(a.HB)

		n := a.NumEvents
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := cl.Reaches(u, v)
				if got := a.HBTime.Reaches(u, v); got != want {
					t.Fatalf("trial %d (%s, %v, seed %d): hb1 %d⇝%d = %v by clocks, %v by closure",
						trial, w.Name, model, seed, u, v, got, want)
				}
				if a.HBReaches(core.EventID(u), core.EventID(v)) != want {
					t.Fatalf("trial %d: HBReaches diverges from the closure on (%d,%d)", trial, u, v)
				}
			}
		}
		for u := 0; u < n; u++ {
			for cpu := 0; cpu < tr.NumCPUs; cpu++ {
				checkWindow(t, trial, a, cl, u, cpu)
			}
		}
	}
	if racyTraces < 20 {
		t.Fatalf("only %d racy traces crosschecked; generator drifted", racyTraces)
	}
}

// checkWindow recomputes HBWindow(u, cpu) by linear scan over the
// explicit closure: the last event of the stream that reaches u and the
// first event u reaches.
func checkWindow(t *testing.T, trial int, a *core.Analysis, cl *graph.Reachability, u, cpu int) {
	t.Helper()
	stream := len(a.Trace.PerCPU[cpu])
	at := func(j int) int { return int(a.ID(trace.EventRef{CPU: cpu, Index: j})) }
	lastPred, firstSucc := -1, stream
	for j := 0; j < stream; j++ {
		if cl.Reaches(at(j), u) {
			lastPred = j
		}
	}
	for j := stream - 1; j >= 0; j-- {
		if cl.Reaches(u, at(j)) {
			firstSucc = j
		}
	}
	if gp, gs := a.HBWindow(core.EventID(u), cpu); gp != lastPred || gs != firstSucc {
		t.Fatalf("trial %d: HBWindow(%d, cpu %d) = (%d,%d) by clocks, (%d,%d) by closure",
			trial, u, cpu, gp, gs, lastPred, firstSucc)
	}
}

// The same pin on bigger random workloads than the corpus draws —
// hundreds of events, denser race populations — where the timestamp
// layer's SCC handling sees real stress. Pair and window coverage is
// sampled (full coverage on every trace is above).
func TestVCTimestampsVsExplicitClosureLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		w := workload.Random(workload.RandomParams{
			Seed:             rng.Int63(),
			CPUs:             3 + rng.Intn(3),
			Segments:         10 + rng.Intn(8),
			OpsPerSegment:    3 + rng.Intn(3),
			Locks:            1 + rng.Intn(3),
			UnlockedFraction: 0.3,
			SharedFraction:   0.6,
		})
		r, err := sim.Run(w.Prog, sim.Config{Model: weakModel(rng), Seed: rng.Int63n(1000), InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		a, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl := graph.NewReachability(a.HB)
		n := a.NumEvents
		for q := 0; q < 20000; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := a.HBTime.Reaches(u, v), cl.Reaches(u, v); got != want {
				t.Fatalf("trial %d: hb1 %d⇝%d = %v by clocks, %v by closure", trial, u, v, got, want)
			}
		}
		for q := 0; q < 200; q++ {
			checkWindow(t, trial, a, cl, rng.Intn(n), rng.Intn(tr.NumCPUs))
		}
	}
}
