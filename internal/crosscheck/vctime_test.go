package crosscheck

import (
	"fmt"
	"math/rand"
	"testing"

	"weakrace/internal/bitset"
	"weakrace/internal/core"
	"weakrace/internal/graph"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
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
//
// Simulated executions almost never close an hb1 cycle, so the same
// check also runs on the TestHBCycleTolerated shape and on generated
// traces whose acquires observe arbitrary releases (weak executions may,
// paper §3.1) — the inputs where multi-member components reach the
// clock pass.
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
		a := checkClocksAgainstClosure(t, fmt.Sprintf("trial %d (%s, %v, seed %d)", trial, w.Name, model, seed),
			trace.FromExecution(r.Exec))
		if !a.RaceFree() {
			racyTraces++
		}
	}
	if racyTraces < 20 {
		t.Fatalf("only %d racy traces crosschecked; generator drifted", racyTraces)
	}

	if a := checkClocksAgainstClosure(t, "two-CPU hb1 cycle", twoCPUCycleTrace()); a.HBTime.SCC().MaxSize() != 6 {
		t.Fatalf("two-CPU cycle: largest hb1 component %d, want all 6 events", a.HBTime.SCC().MaxSize())
	}
	cyclic := 0
	for trial := 0; trial < 300; trial++ {
		tr := randomPairingTrace(rng)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace %d invalid: %v", trial, err)
		}
		if a := checkClocksAgainstClosure(t, fmt.Sprintf("generated trace %d", trial), tr); a.HBTime.SCC().MaxSize() > 1 {
			cyclic++
		}
	}
	if cyclic < 60 {
		t.Fatalf("only %d of 300 generated traces have an hb1 cycle; generator drifted", cyclic)
	}
}

// checkClocksAgainstClosure analyzes tr and checks every ordered pair
// and every (event, CPU) window against the explicit closure of a.HB.
func checkClocksAgainstClosure(t *testing.T, label string, tr *trace.Trace) *core.Analysis {
	t.Helper()
	a, err := core.Analyze(tr, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cl := graph.NewReachability(a.HB)
	n := a.NumEvents
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := cl.Reaches(u, v)
			if got := a.HBTime.Reaches(u, v); got != want {
				t.Fatalf("%s: hb1 %d⇝%d = %v by clocks, %v by closure", label, u, v, got, want)
			}
			if a.HBReaches(core.EventID(u), core.EventID(v)) != want {
				t.Fatalf("%s: HBReaches diverges from the closure on (%d,%d)", label, u, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		for cpu := 0; cpu < tr.NumCPUs; cpu++ {
			checkWindow(t, label, a, cl, u, cpu)
		}
	}
	return a
}

// twoCPUCycleTrace is core's TestHBCycleTolerated shape: each CPU's
// acquire observes the other CPU's final release, so so1 closes one hb1
// cycle through all six events.
func twoCPUCycleTrace() *trace.Trace {
	const a, b, x = 0, 1, 2
	acq := func(loc, seq, cpu int) *trace.Event {
		return &trace.Event{Kind: trace.Sync, Role: memmodel.RoleAcquire, Loc: program.Addr(loc), SyncSeq: seq,
			Observed: trace.EventRef{CPU: cpu, Index: 2}, ObservedRole: memmodel.RoleRelease}
	}
	rel := func(loc, seq int) *trace.Event {
		return &trace.Event{Kind: trace.Sync, Role: memmodel.RoleRelease, Loc: program.Addr(loc), SyncSeq: seq,
			Observed: trace.NoEvent}
	}
	comp := func(reads, writes []int) *trace.Event {
		return &trace.Event{Kind: trace.Comp, Reads: bitset.FromSlice(reads), Writes: bitset.FromSlice(writes),
			SyncSeq: -1, Observed: trace.NoEvent}
	}
	return &trace.Trace{ProgramName: "hb1-cycle", NumCPUs: 2, NumLocations: 3, PerCPU: [][]*trace.Event{
		{acq(a, 0, 1), comp(nil, []int{x}), rel(b, 0)},
		{acq(b, 1, 0), comp([]int{x}, nil), rel(a, 1)},
	}}
}

// randomPairingTrace draws 2–4 CPUs of 3–10 events each over two data
// locations and two locks. Each acquire observes a random release of its
// lock on another CPU (or nothing, when there is none), whatever their
// positions — so so1 may point backward and close hb1 cycles — and each
// lock's synchronization events get a random permutation of dense
// SyncSeqs, so the trace still validates.
func randomPairingTrace(rng *rand.Rand) *trace.Trace {
	const data, locks = 2, 2
	tr := &trace.Trace{ProgramName: "random-pairing", NumCPUs: 2 + rng.Intn(3), NumLocations: data + locks}
	tr.PerCPU = make([][]*trace.Event, tr.NumCPUs)
	for c := range tr.PerCPU {
		for i, n := 0, 3+rng.Intn(8); i < n; i++ {
			ev := &trace.Event{Kind: trace.Sync, SyncSeq: -1, Observed: trace.NoEvent}
			switch rng.Intn(3) {
			case 0:
				ev.Kind = trace.Comp
				ev.Reads, ev.Writes = bitset.New(data), bitset.New(data)
				if rng.Intn(2) == 0 {
					ev.Reads.Add(rng.Intn(data))
				} else {
					ev.Writes.Add(rng.Intn(data))
				}
			case 1:
				ev.Role, ev.Loc = memmodel.RoleAcquire, program.Addr(data+rng.Intn(locks))
			default:
				ev.Role, ev.Loc = memmodel.RoleRelease, program.Addr(data+rng.Intn(locks))
			}
			tr.PerCPU[c] = append(tr.PerCPU[c], ev)
		}
	}
	syncs := map[program.Addr][]*trace.Event{}
	for c, evs := range tr.PerCPU {
		for _, ev := range evs {
			if ev.Kind != trace.Sync {
				continue
			}
			syncs[ev.Loc] = append(syncs[ev.Loc], ev)
			if ev.Role != memmodel.RoleAcquire {
				continue
			}
			var rels []trace.EventRef
			for oc, oevs := range tr.PerCPU {
				for oi, o := range oevs {
					if oc != c && o.Kind == trace.Sync && o.Role == memmodel.RoleRelease && o.Loc == ev.Loc {
						rels = append(rels, trace.EventRef{CPU: oc, Index: oi})
					}
				}
			}
			if len(rels) > 0 {
				ev.Observed, ev.ObservedRole = rels[rng.Intn(len(rels))], memmodel.RoleRelease
			}
		}
	}
	for loc := program.Addr(data); loc < data+locks; loc++ {
		for i, seq := range rng.Perm(len(syncs[loc])) {
			syncs[loc][i].SyncSeq = seq
		}
	}
	return tr
}

// checkWindow recomputes HBWindow(u, cpu) by linear scan over the
// explicit closure: the last event of the stream that reaches u and the
// first event u reaches.
func checkWindow(t *testing.T, label string, a *core.Analysis, cl *graph.Reachability, u, cpu int) {
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
		t.Fatalf("%s: HBWindow(%d, cpu %d) = (%d,%d) by clocks, (%d,%d) by closure",
			label, u, cpu, gp, gs, lastPred, firstSucc)
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
			checkWindow(t, fmt.Sprintf("trial %d", trial), a, cl, rng.Intn(n), rng.Intn(tr.NumCPUs))
		}
	}
}
