package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/oracle"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// hb1Input is one trace the hb1 clock crosschecks run on.
type hb1Input struct {
	label     string
	tr        *trace.Trace
	simulated bool // a simulated execution, or Figure 2: hb1 acyclic
}

// hb1Inputs returns the traces the hb1 crosschecks run on: the 60-trace
// corpus the augmented-graph crosscheck draws, Figure 2 (WO, seed 674),
// the TestHBCycleTolerated shape, and 300 generated traces whose
// acquires observe arbitrary releases (weak executions may, paper §3.1)
// — the inputs where hb1 has cycles and multi-member components reach
// the clock pass.
func hb1Inputs(t *testing.T) []hb1Input {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var in []hb1Input
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(rng, trial%3 != 0)
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, hb1Input{fmt.Sprintf("trial %d (%s, %v, seed %d)", trial, w.Name, model, seed),
			trace.FromExecution(r.Exec), true})
	}
	w := workload.Figure2()
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 674, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	in = append(in, hb1Input{"Figure 2 (WO, seed 674)", trace.FromExecution(r.Exec), true})
	in = append(in, hb1Input{"two-CPU hb1 cycle", twoCPUCycleTrace(), false})
	for trial := 0; trial < 300; trial++ {
		tr := randomPairingTrace(rng)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace %d invalid: %v", trial, err)
		}
		in = append(in, hb1Input{fmt.Sprintf("generated trace %d", trial), tr, false})
	}
	return in
}

// The vector-clock timestamps (one merge over the processors assigns
// every event an O(p) timestamp; ordering queries become epoch compares)
// must agree with the explicit transitive closure of hb1 built from the
// trace (internal/oracle's closure of its HB1) on every input of
// hb1Inputs: every event pair's ordering, through the timestamp layer
// and through the analysis's HBReaches, and every (event, CPU) window
// the sweep and the provenance certificates are built from.
//
// The graph.vc.stalls counter proves which clock path ran: the merge
// stalls — and falls back to per-component clocks — exactly on the
// inputs whose hb1 has a cycle, so it stays 0 over the corpus and Figure
// 2 and ends equal to the number of cyclic inputs.
func TestVCTimestampsVsExplicitClosure(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()
	stalls := reg.Counter("graph.vc.stalls")
	racyTraces, cyclic, cyclicGenerated := 0, 0, 0
	for _, in := range hb1Inputs(t) {
		a, err := core.Analyze(in.tr, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		maxSCC := checkHB1AgainstClosure(t, in.label, a)
		switch {
		case in.simulated:
			if !a.RaceFree() {
				racyTraces++
			}
			if maxSCC > 1 || stalls.Value() != 0 {
				t.Fatalf("%s: acyclic input, but largest hb1 component %d and %d merge stalls",
					in.label, maxSCC, stalls.Value())
			}
		case in.label == "two-CPU hb1 cycle" && maxSCC != 6:
			t.Fatalf("two-CPU cycle: largest hb1 component %d, want all 6 events", maxSCC)
		}
		if maxSCC > 1 {
			cyclic++
			if in.label != "two-CPU hb1 cycle" {
				cyclicGenerated++
			}
		}
		if stalls.Value() != int64(cyclic) {
			t.Fatalf("%s: %d merge stalls after %d cyclic inputs", in.label, stalls.Value(), cyclic)
		}
	}
	t.Logf("%d racy simulated traces; %d cyclic inputs, %d merge stalls", racyTraces, cyclic, stalls.Value())
	if racyTraces < 20 {
		t.Fatalf("only %d racy traces crosschecked; generator drifted", racyTraces)
	}
	if cyclicGenerated < 60 {
		t.Fatalf("only %d of 300 generated traces have an hb1 cycle; generator drifted", cyclicGenerated)
	}
}

// Analyze's flat hb1 must list every event's successors exactly as the
// explicit hb1 built from the trace does, in order — the order G′'s
// Tarjan meets them, so this pins G′'s component ids — on every input
// of hb1Inputs and under both pairing policies.
func TestHB1SuccessorOrder(t *testing.T) {
	for _, in := range hb1Inputs(t) {
		for _, pairing := range []memmodel.PairingPolicy{memmodel.ConservativePairing, memmodel.LiberalPairing} {
			want := oracle.HB1(in.tr, pairing)
			got := core.HB1(in.tr, pairing)
			m := 0
			for _, ws := range want {
				m += len(ws)
			}
			if got.N() != len(want) || got.M() != m {
				t.Fatalf("%s, %v: flat hb1 has %d nodes / %d edges, explicit %d / %d",
					in.label, pairing, got.N(), got.M(), len(want), m)
			}
			for u, ws := range want {
				gs := got.Succ(u)
				same := len(gs) == len(ws)
				for i := 0; same && i < len(ws); i++ {
					same = int(gs[i]) == ws[i]
				}
				if !same {
					t.Fatalf("%s, %v: successors of %d are %v, explicit %v", in.label, pairing, u, gs, ws)
				}
			}
		}
	}
}

// checkHB1AgainstClosure checks every ordered pair and every (event,
// CPU) window of a against the explicit closure of its hb1, and returns
// the size of hb1's largest strongly connected component.
func checkHB1AgainstClosure(t *testing.T, label string, a *core.Analysis) int {
	t.Helper()
	hb1 := oracle.HB1(a.Trace, a.Options.Pairing)
	cl := oracle.NewClosure(hb1)
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
		for cpu := 0; cpu < a.Trace.NumCPUs; cpu++ {
			checkWindow(t, label, a, cl, u, cpu)
		}
	}
	size := make([]int, n)
	for _, c := range oracle.Tarjan(hb1) {
		size[c]++
	}
	return slices.Max(append(size, 0))
}

// twoCPUCycleTrace is core's TestHBCycleTolerated shape: each CPU's
// acquire observes the other CPU's final release, so so1 closes one hb1
// cycle through all six events.
func twoCPUCycleTrace() *trace.Trace {
	const a, b, x = 0, 1, 2
	acq := func(loc, seq, cpu int) spec {
		return spec{sync: trace.SyncEvent{Role: memmodel.RoleAcquire, Loc: program.Addr(loc), SyncSeq: seq,
			Observed: trace.EventRef{CPU: cpu, Index: 2}, ObservedRole: memmodel.RoleRelease}}
	}
	rel := func(loc, seq int) spec {
		return spec{sync: trace.SyncEvent{Role: memmodel.RoleRelease, Loc: program.Addr(loc), SyncSeq: seq,
			Observed: trace.NoEvent}}
	}
	return build(trace.Header{ProgramName: "hb1-cycle", NumCPUs: 2, NumLocations: 3}, [][]spec{
		{acq(a, 0, 1), compSpec(nil, []program.Addr{x}), rel(b, 0)},
		{acq(b, 1, 0), compSpec([]program.Addr{x}, nil), rel(a, 1)},
	})
}

// randomPairingTrace draws 2–4 CPUs of 3–10 events each over two data
// locations and two locks. Each acquire observes a random release of its
// lock on another CPU (or nothing, when there is none), whatever their
// positions — so so1 may point backward and close hb1 cycles — and each
// lock's synchronization events get a random permutation of dense
// SyncSeqs, so the trace still validates.
func randomPairingTrace(rng *rand.Rand) *trace.Trace {
	const data, locks = 2, 2
	streams := make([][]spec, 2+rng.Intn(3))
	for c := range streams {
		for i, n := 0, 3+rng.Intn(8); i < n; i++ {
			e := spec{sync: trace.SyncEvent{Observed: trace.NoEvent}}
			switch rng.Intn(3) {
			case 0:
				if rng.Intn(2) == 0 {
					e = compSpec([]program.Addr{program.Addr(rng.Intn(data))}, nil)
				} else {
					e = compSpec(nil, []program.Addr{program.Addr(rng.Intn(data))})
				}
			case 1:
				e.sync.Role, e.sync.Loc = memmodel.RoleAcquire, program.Addr(data+rng.Intn(locks))
			default:
				e.sync.Role, e.sync.Loc = memmodel.RoleRelease, program.Addr(data+rng.Intn(locks))
			}
			streams[c] = append(streams[c], e)
		}
	}
	syncs := map[program.Addr][]*trace.SyncEvent{}
	for c, evs := range streams {
		for i := range evs {
			ev := &evs[i]
			if ev.comp {
				continue
			}
			syncs[ev.sync.Loc] = append(syncs[ev.sync.Loc], &ev.sync)
			if ev.sync.Role != memmodel.RoleAcquire {
				continue
			}
			var rels []trace.EventRef
			for oc, oevs := range streams {
				for oi, o := range oevs {
					if oc != c && !o.comp && o.sync.Role == memmodel.RoleRelease && o.sync.Loc == ev.sync.Loc {
						rels = append(rels, trace.EventRef{CPU: oc, Index: oi})
					}
				}
			}
			if len(rels) > 0 {
				ev.sync.Observed, ev.sync.ObservedRole = rels[rng.Intn(len(rels))], memmodel.RoleRelease
			}
		}
	}
	for loc := program.Addr(data); loc < data+locks; loc++ {
		for i, seq := range rng.Perm(len(syncs[loc])) {
			syncs[loc][i].SyncSeq = seq
		}
	}
	return build(trace.Header{ProgramName: "random-pairing", NumCPUs: len(streams), NumLocations: data + locks}, streams)
}

// checkWindow recomputes HBWindow(u, cpu) by linear scan over the
// explicit closure: the last event of the stream that reaches u and the
// first event u reaches.
func checkWindow(t *testing.T, label string, a *core.Analysis, cl *oracle.Closure, u, cpu int) {
	t.Helper()
	from, to := a.Trace.Stream(cpu)
	stream := to - from
	at := func(j int) int { return from + j }
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
		cl := oracle.NewClosure(oracle.HB1(tr, a.Options.Pairing))
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
