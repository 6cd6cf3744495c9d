package crosscheck

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// The vector-clock hb1 path (the default: one topological pass assigns
// every event an O(p) timestamp, ordering queries become epoch compares)
// and the explicit lazy-closure path (Options.ExplicitClosure, the PR-3
// oracle) must produce identical Analysis output on the same 60-trace
// corpus the augmented-graph crosscheck uses: same races, data races,
// partitions, first partitions, partition order — and the rendered
// report byte-identical. On top of the end-to-end pin, every event
// pair's ordering must agree between the timestamp layer and the bitset
// closure, and the per-CPU windows both paths serve to provenance must
// match index for index.
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
		vc, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.Analyze(tr, core.Options{ExplicitClosure: true})
		if err != nil {
			t.Fatal(err)
		}
		if vc.HBTime == nil || vc.HBReach != nil {
			t.Fatalf("trial %d: default path did not build the timestamp oracle", trial)
		}
		if cl.HBTime != nil || cl.HBReach == nil {
			t.Fatalf("trial %d: ExplicitClosure did not build the closure oracle", trial)
		}
		if !vc.RaceFree() {
			racyTraces++
		}

		comparePaths(t, trial, w, seed, vc, cl)

		// Event-pair property: the timestamp layer's ordering must equal
		// the explicit closure's on every pair, and the reflexive dispatch
		// helpers must agree with the oracles underneath them.
		n := vc.NumEvents
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got := vc.HBTime.Reaches(u, v)
				want := cl.HBReach.Reaches(u, v)
				if got != want {
					t.Fatalf("trial %d (%s, %v, seed %d): hb1 %d⇝%d = %v by clocks, %v by closure",
						trial, w.Name, model, seed, u, v, got, want)
				}
				if vc.HBReaches(core.EventID(u), core.EventID(v)) != want ||
					cl.HBReaches(core.EventID(u), core.EventID(v)) != want {
					t.Fatalf("trial %d: HBReaches dispatch diverges from oracle on (%d,%d)", trial, u, v)
				}
			}
		}

		// Window property: both paths must bracket every (event, CPU) pair
		// with the same prefix/suffix indices — the structure the
		// provenance certificates are built from.
		for u := 0; u < n; u++ {
			for cpu := 0; cpu < tr.NumCPUs; cpu++ {
				vp, vs := vc.HBWindow(core.EventID(u), cpu)
				cp, cs := cl.HBWindow(core.EventID(u), cpu)
				if vp != cp || vs != cs {
					t.Fatalf("trial %d: HBWindow(%d, cpu %d) = (%d,%d) by clocks, (%d,%d) by closure",
						trial, u, cpu, vp, vs, cp, cs)
				}
			}
		}
	}
	if racyTraces < 20 {
		t.Fatalf("only %d racy traces crosschecked; generator drifted", racyTraces)
	}
}

// comparePaths pins two analyses of the same trace to identical output:
// races, data races, partitions (Component masked — SCC numbering may
// differ), first partitions, the partition order relation, the affect
// relation, and the rendered report bytes.
func comparePaths(t *testing.T, trial int, w *workload.Workload, seed int64, a, b *core.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(a.Races, b.Races) {
		t.Fatalf("trial %d (%s, seed %d): race lists differ:\n%+v\nvs\n%+v",
			trial, w.Name, seed, a.Races, b.Races)
	}
	if a.SyncRaces != b.SyncRaces {
		t.Fatalf("trial %d (%s, seed %d): sync-race counts differ: %d vs %d", trial, w.Name, seed, a.SyncRaces, b.SyncRaces)
	}
	maskComp := func(ps []core.Partition) []core.Partition {
		out := make([]core.Partition, len(ps))
		for i, p := range ps {
			p.Component = 0
			out[i] = p
		}
		return out
	}
	if !reflect.DeepEqual(maskComp(a.Partitions), maskComp(b.Partitions)) {
		t.Fatalf("trial %d (%s, seed %d): partitions differ:\n%+v\nvs\n%+v",
			trial, w.Name, seed, a.Partitions, b.Partitions)
	}
	if !reflect.DeepEqual(a.FirstPartitions, b.FirstPartitions) {
		t.Fatalf("trial %d (%s, seed %d): first partitions differ: %v vs %v",
			trial, w.Name, seed, a.FirstPartitions, b.FirstPartitions)
	}
	for i := range a.Partitions {
		for j := range a.Partitions {
			if got, want := a.PartitionPrecedes(i, j), b.PartitionPrecedes(i, j); got != want {
				t.Fatalf("trial %d (%s, seed %d): PartitionPrecedes(%d,%d) = %v vs %v",
					trial, w.Name, seed, i, j, got, want)
			}
		}
	}
	for ri := range a.Races {
		for rj := range a.Races {
			if got, want := a.Affects(ri, rj), b.Affects(ri, rj); got != want {
				t.Fatalf("trial %d (%s, seed %d): Affects(%d,%d) = %v vs %v",
					trial, w.Name, seed, ri, rj, got, want)
			}
		}
	}
	var aOut, bOut bytes.Buffer
	if err := report.RenderAnalysis(&aOut, a); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderAnalysis(&bOut, b); err != nil {
		t.Fatal(err)
	}
	if aOut.String() != bOut.String() {
		t.Fatalf("trial %d (%s, seed %d): rendered reports differ:\n--- a ---\n%s\n--- b ---\n%s",
			trial, w.Name, seed, aOut.String(), bOut.String())
	}
}

// The same pin on bigger random workloads than the corpus draws —
// hundreds of events, denser race populations — where the timestamp
// layer's SCC handling and the sweep's window arithmetic see real
// stress. Pair coverage is sampled (full n² on every trace is covered
// above); the Analysis comparison is exact.
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
		vc, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.Analyze(tr, core.Options{ExplicitClosure: true})
		if err != nil {
			t.Fatal(err)
		}
		comparePaths(t, trial, w, r.Exec.Seed, vc, cl)
		n := vc.NumEvents
		for q := 0; q < 20000; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := vc.HBTime.Reaches(u, v), cl.HBReach.Reaches(u, v); got != want {
				t.Fatalf("trial %d: hb1 %d⇝%d = %v by clocks, %v by closure", trial, u, v, got, want)
			}
		}
	}
}
