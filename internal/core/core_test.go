package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
)

// ev is one event of a test trace before it is built: a
// synchronization event, or a computation event's accesses.
type ev struct {
	comp          bool
	reads, writes []trace.LocPC
	sync          trace.SyncEvent
}

// comp builds a computation event with the given read and write sets and
// synthetic PC provenance (pc = location).
func comp(reads, writes []int) ev {
	return ev{comp: true, reads: locPCs(reads), writes: locPCs(writes)}
}

// setOf returns locs as a location set: sorted, without duplicates.
func setOf(locs []int) trace.Locs {
	var s trace.Locs
	for _, l := range locs {
		s = append(s, program.Addr(l))
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// locPCs returns the synthetic PC provenance pc = location for locs, in
// location order, one entry per location.
func locPCs(locs []int) []trace.LocPC {
	var out []trace.LocPC
	for _, l := range setOf(locs) {
		out = append(out, trace.LocPC{Loc: l, PC: int(l)})
	}
	return out
}

// syncEv builds a synchronization event.
func syncEv(role memmodel.Role, loc, seq int) ev {
	return ev{sync: trace.SyncEvent{Role: role, Loc: program.Addr(loc), SyncSeq: seq, Observed: trace.NoEvent}}
}

// paired builds an acquire observing the given sync write event.
func paired(loc, seq int, obs trace.EventRef, obsRole memmodel.Role) ev {
	return ev{sync: trace.SyncEvent{
		Role: memmodel.RoleAcquire, Loc: program.Addr(loc), SyncSeq: seq, Observed: obs, ObservedRole: obsRole,
	}}
}

// buildTrace builds one stream per processor into a trace declaring
// numLocs locations.
func buildTrace(numLocs int, streams [][]ev) (*trace.Trace, error) {
	b := trace.NewBuilder(trace.Header{ProgramName: "test", NumCPUs: len(streams), NumLocations: numLocs})
	for c, evs := range streams {
		for _, e := range evs {
			if e.comp {
				b.Comp(c, e.reads, e.writes)
			} else {
				b.Sync(c, e.sync)
			}
		}
	}
	return b.Build()
}

// mkTrace is buildTrace for streams the test knows to be valid.
func mkTrace(numLocs int, streams ...[]ev) *trace.Trace {
	tr, err := buildTrace(numLocs, streams)
	if err != nil {
		panic(err)
	}
	return tr
}

// streamsOf lists tr's events as test events, PC provenance included.
func streamsOf(tr *trace.Trace) [][]ev {
	out := make([][]ev, tr.NumCPUs)
	for c := range out {
		from, to := tr.Stream(c)
		for i := from; i < to; i++ {
			e := tr.Event(i)
			if e.Kind() == trace.Comp {
				out[c] = append(out[c], ev{comp: true,
					reads:  accessList(tr.Reads(i), tr.ReadPCs(i)),
					writes: accessList(tr.Writes(i), tr.WritePCs(i))})
				continue
			}
			s := trace.SyncEvent{Role: e.Role(), Loc: e.Loc(), SyncSeq: e.SyncSeq(), PC: e.PC(), Observed: trace.NoEvent}
			if e.Observed() >= 0 {
				s.Observed, s.ObservedRole = tr.Ref(e.Observed()), e.ObservedRole()
			}
			out[c] = append(out[c], ev{sync: s})
		}
	}
	return out
}

// accessList zips a set with its PCs.
func accessList(set trace.Locs, pcs []int) []trace.LocPC {
	var out []trace.LocPC
	for k, loc := range set {
		out = append(out, trace.LocPC{Loc: loc, PC: pcs[k]})
	}
	return out
}

func analyze(t *testing.T, tr *trace.Trace, opts Options) *Analysis {
	t.Helper()
	a, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Figure 1a: P1 writes x then y; P2 reads y then x; no synchronization.
// One data race per location, both in one first partition? No — P1 and P2
// each have a single computation event, so there is exactly one
// higher-level race covering both locations.
func TestFigure1aRaceDetected(t *testing.T) {
	const x, y = 0, 1
	tr := mkTrace(2,
		[]ev{comp(nil, []int{x, y})},
		[]ev{comp([]int{y, x}, nil)},
	)
	a := analyze(t, tr, Options{})
	if a.RaceFree() {
		t.Fatal("Figure 1a execution reported race-free")
	}
	if len(a.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(a.Races))
	}
	r := a.Races[0]
	if !r.Locs.Contains(x) || !r.Locs.Contains(y) {
		t.Fatalf("race locations = %s, want {0, 1}", r.Locs)
	}
	if len(a.Partitions) != 1 || len(a.FirstPartitions) != 1 {
		t.Fatalf("partitions = %d first = %d, want 1 and 1", len(a.Partitions), len(a.FirstPartitions))
	}
	if !a.Partitions[0].First {
		t.Fatal("sole partition not first")
	}
}

// Figure 1b: proper Unset/Test&Set pairing orders the conflicting data
// operations; no data races (Theorem 4.1: no first partitions).
func TestFigure1bRaceFree(t *testing.T) {
	const x, y, s = 0, 1, 2
	p1 := []ev{
		comp(nil, []int{x, y}),
		syncEv(memmodel.RoleRelease, s, 0),
	}
	p2 := []ev{
		paired(s, 1, trace.EventRef{CPU: 0, Index: 1}, memmodel.RoleRelease),
		syncEv(memmodel.RoleSyncOther, s, 2),
		comp([]int{y, x}, nil),
	}
	tr := mkTrace(3, p1, p2)
	a := analyze(t, tr, Options{})
	if !a.RaceFree() {
		t.Fatalf("Figure 1b execution reported %d data races", len(a.Races))
	}
	if len(a.FirstPartitions) != 0 {
		t.Fatal("race-free execution has first partitions (Theorem 4.1)")
	}
}

// The Figure 2b / Figure 3 execution, hand-built:
//
//	P1: comp{W Q, W QEmpty}               then Unset(S)
//	P2: comp{R QEmpty, R Q}, Unset(S),    comp{W 11, W 12, W 13}
//	P3: comp{W 10, W 11, W 12}, Unset(S), comp{R 10, W 10}
//
// Races: ⟨P1.c, P2.c1⟩ on {Q, QEmpty} (the first partition) and
// ⟨P2.c2, P3.c1⟩, ⟨P2.c2 ∼ P3.c2? no — they share no location… use 10⟩.
func TestFigure2Partitions(t *testing.T) {
	const q, qEmpty, s = 0, 1, 2
	p1 := []ev{
		comp(nil, []int{q, qEmpty}),
		syncEv(memmodel.RoleRelease, s, 0),
	}
	p2 := []ev{
		comp([]int{qEmpty, q}, nil),
		syncEv(memmodel.RoleRelease, s, 1),
		comp(nil, []int{11, 12, 13}),
	}
	p3 := []ev{
		comp(nil, []int{10, 11, 12}),
		syncEv(memmodel.RoleRelease, s, 2),
		comp([]int{11}, []int{11}),
	}
	tr := mkTrace(16, p1, p2, p3)
	a := analyze(t, tr, Options{})

	// Data races: ⟨P1.0,P2.0⟩, ⟨P2.2,P3.0⟩, ⟨P2.2,P3.2⟩ — plus sync races
	// among the unpaired Unsets on S.
	if len(a.Races) != 3 {
		t.Fatalf("data races = %d, want 3", len(a.Races))
	}
	if len(a.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2", len(a.Partitions))
	}
	if len(a.FirstPartitions) != 1 {
		t.Fatalf("first partitions = %d, want 1", len(a.FirstPartitions))
	}
	first := a.Partitions[a.FirstPartitions[0]]
	if len(first.Races) != 1 {
		t.Fatalf("first partition has %d races, want 1", len(first.Races))
	}
	fr := a.Races[first.Races[0]]
	if !fr.Locs.Contains(q) || !fr.Locs.Contains(qEmpty) {
		t.Fatalf("first partition race on %s, want {Q, QEmpty}", fr.Locs)
	}
	// The non-first partition holds the two region races.
	var nonFirst *Partition
	for i := range a.Partitions {
		if !a.Partitions[i].First {
			nonFirst = &a.Partitions[i]
		}
	}
	if nonFirst == nil || len(nonFirst.Races) != 2 {
		t.Fatalf("non-first partition wrong: %+v", nonFirst)
	}
	// Ordering: first precedes non-first, not vice versa.
	var fi, ni int
	for i := range a.Partitions {
		if a.Partitions[i].First {
			fi = i
		} else {
			ni = i
		}
	}
	if !a.PartitionPrecedes(fi, ni) {
		t.Fatal("first partition does not precede non-first")
	}
	if a.PartitionPrecedes(ni, fi) {
		t.Fatal("non-first partition precedes first")
	}
}

// The pairing policy changes which so1 edges exist: a Test&Set's write
// pairs under LiberalPairing only.
func TestPairingPolicy(t *testing.T) {
	const x, s = 0, 1
	p1 := []ev{
		comp(nil, []int{x}),
		syncEv(memmodel.RoleSyncOther, s, 0), // Test&Set's write half
	}
	p2 := []ev{
		paired(s, 1, trace.EventRef{CPU: 0, Index: 1}, memmodel.RoleSyncOther),
		comp([]int{x}, nil),
	}

	conservative := analyze(t, mkTrace(2, p1, p2), Options{Pairing: memmodel.ConservativePairing})
	if conservative.RaceFree() {
		t.Fatal("conservative pairing must not order via a Test&Set write")
	}

	liberal := analyze(t, mkTrace(2, p1, p2), Options{Pairing: memmodel.LiberalPairing})
	if !liberal.RaceFree() {
		t.Fatal("liberal pairing should order via the Test&Set write")
	}
}

// A weak execution can give hb1 cycles (§3.1); the detector must treat
// mutually-reachable events as ordered and not report them as races.
func TestHBCycleTolerated(t *testing.T) {
	const a, b, x = 0, 1, 2
	// P1: acquire(a) (observes P2's release), comp{W x}, release(b)
	// P2: acquire(b) (observes P1's release), comp{R x}, release(a)
	// so1 edges create the cycle: P2.rel(a)→P1.acq(a)→…→P1.rel(b)→P2.acq(b)→…→P2.rel(a).
	p1 := []ev{
		paired(a, 0, trace.EventRef{CPU: 1, Index: 2}, memmodel.RoleRelease),
		comp(nil, []int{x}),
		syncEv(memmodel.RoleRelease, b, 0),
	}
	p2 := []ev{
		paired(b, 1, trace.EventRef{CPU: 0, Index: 2}, memmodel.RoleRelease),
		comp([]int{x}, nil),
		syncEv(memmodel.RoleRelease, a, 1),
	}
	an := analyze(t, mkTrace(3, p1, p2), Options{})
	// Every event is on one big hb1 cycle: all pairs are (degenerately)
	// ordered, so no races are reported and the analysis must not wedge.
	if len(an.Races) != 0 {
		t.Fatalf("races on a full hb1 cycle = %d, want 0", len(an.Races))
	}
}

// Two reads never race; write/write and read/write do.
func TestConflictModes(t *testing.T) {
	// Read-read: no race.
	a := analyze(t, mkTrace(1,
		[]ev{comp([]int{0}, nil)},
		[]ev{comp([]int{0}, nil)},
	), Options{})
	if len(a.Races) != 0 {
		t.Fatal("read-read pair reported as race")
	}
	// Write-write: race.
	a = analyze(t, mkTrace(1,
		[]ev{comp(nil, []int{0})},
		[]ev{comp(nil, []int{0})},
	), Options{})
	if len(a.Races) != 1 {
		t.Fatal("write-write race missed")
	}
	// Sync vs data on the same location: a data race (§2, Figure 1b
	// commentary: "no synchronization operation conflicts with a data
	// operation" is part of race freedom).
	a = analyze(t, mkTrace(1,
		[]ev{syncEv(memmodel.RoleRelease, 0, 0)},
		[]ev{comp([]int{0}, nil)},
	), Options{})
	if len(a.Races) != 1 {
		t.Fatal("sync-data conflict not reported as data race")
	}
	// Sync vs sync: a race, but not a data race — counted, not stored.
	a = analyze(t, mkTrace(1,
		[]ev{syncEv(memmodel.RoleRelease, 0, 0)},
		[]ev{syncEv(memmodel.RoleSyncOther, 0, 1)},
	), Options{})
	if a.SyncRaces != 1 {
		t.Fatalf("sync-sync pair: sync races=%d, want 1", a.SyncRaces)
	}
	if len(a.Races) != 0 || len(a.FirstPartitions) != 0 {
		t.Fatal("sync race must not form a data-race partition")
	}
}

func TestSameCPUNeverRaces(t *testing.T) {
	a := analyze(t, mkTrace(1, []ev{
		comp(nil, []int{0}),
		comp(nil, []int{0}),
	}), Options{})
	if len(a.Races) != 0 {
		t.Fatal("same-processor events reported racing")
	}
}

// A NumCPUs edited after the trace was made no longer matches its
// streams; Analyze refuses the trace rather than index past the streams
// (raised) or skip the last ones (lowered).
func TestAnalyzeRefusesEditedHeader(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		tr := mkTrace(2,
			[]ev{comp(nil, []int{0})},
			[]ev{comp([]int{0}, nil)},
		)
		tr.NumCPUs += delta
		_, err := Analyze(tr, Options{})
		want := fmt.Sprintf("core: trace: NumCPUs=%d but 2 streams", 2+delta)
		if err == nil || err.Error() != want {
			t.Errorf("NumCPUs %+d: Analyze error %v, want %q", delta, err, want)
		}
	}
}

func TestIDRefRoundTrip(t *testing.T) {
	tr := mkTrace(4,
		[]ev{comp(nil, []int{0}), comp(nil, []int{1})},
		[]ev{comp(nil, []int{2})},
		[]ev{comp(nil, []int{3}), comp([]int{0}, nil), comp([]int{1}, nil)},
	)
	a := analyze(t, tr, Options{})
	for c := range tr.NumCPUs {
		from, to := tr.Stream(c)
		for i := range to - from {
			ref := trace.EventRef{CPU: c, Index: i}
			id := a.ID(ref)
			if got := a.Ref(id); got != ref {
				t.Fatalf("Ref(ID(%v)) = %v", ref, got)
			}
			if a.Event(id) != tr.Event(from+i) {
				t.Fatalf("Event(%d) wrong", id)
			}
		}
	}
}

func TestLowerLevelExpansion(t *testing.T) {
	const x, y = 0, 1
	tr := mkTrace(2,
		[]ev{comp(nil, []int{x, y})},
		[]ev{comp([]int{y, x}, nil)},
	)
	a := analyze(t, tr, Options{})
	lls := a.LowerLevel(a.Races[0])
	if len(lls) != 2 {
		t.Fatalf("lower-level races = %d, want 2: %v", len(lls), lls)
	}
	seen := map[program.Addr]bool{}
	for _, ll := range lls {
		seen[ll.Loc] = true
		if !ll.XWrites && !ll.YWrites {
			t.Fatalf("lower-level race with no write: %v", ll)
		}
		// PC provenance in comp() is pc=loc.
		if ll.X.PC != int(ll.Loc) || ll.Y.PC != int(ll.Loc) {
			t.Fatalf("lower-level provenance wrong: %v", ll)
		}
	}
	if !seen[x] || !seen[y] {
		t.Fatalf("lower-level races missing a location: %v", lls)
	}
}

// End-to-end through the simulator: the Figure 1b program is race-free on
// every model and seed; the Figure 1a program always races.
func TestEndToEndWithSimulator(t *testing.T) {
	const x, y, s = 0, 1, 2
	b := program.NewBuilder("fig1b", 3, 2)
	b.Thread("P1").
		Write(program.At(x), program.Imm(1)).
		Write(program.At(y), program.Imm(1)).
		Unset(program.At(s))
	b.Thread("P2").
		Label("spin").
		TestAndSet(0, program.At(s)).
		BranchNotZero(0, "spin").
		Read(0, program.At(y)).
		Read(1, program.At(x))
	fig1b := b.MustBuild()

	b = program.NewBuilder("fig1a", 2, 2)
	b.Thread("P1").
		Write(program.At(x), program.Imm(1)).
		Write(program.At(y), program.Imm(1))
	b.Thread("P2").
		Read(0, program.At(y)).
		Read(1, program.At(x))
	fig1a := b.MustBuild()

	for _, model := range memmodel.All {
		for seed := int64(0); seed < 30; seed++ {
			r, err := sim.Run(fig1b, sim.Config{
				Model: model, Seed: seed,
				InitMemory: map[program.Addr]int64{s: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			a := analyze(t, trace.FromExecution(r.Exec), Options{})
			if !a.RaceFree() {
				t.Fatalf("%v seed %d: fig1b reported racy", model, seed)
			}

			r, err = sim.Run(fig1a, sim.Config{Model: model, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			a = analyze(t, trace.FromExecution(r.Exec), Options{})
			if a.RaceFree() {
				t.Fatalf("%v seed %d: fig1a reported race-free", model, seed)
			}
			if len(a.FirstPartitions) == 0 {
				t.Fatalf("%v seed %d: racy execution with no first partition (Theorem 4.1)", model, seed)
			}
		}
	}
}

// randomTrace builds a structurally valid random trace: per-location dense
// sync sequences, acquires observing the latest preceding sync write.
func randomTrace(rng *rand.Rand) *trace.Trace {
	nCPU := 2 + rng.Intn(3)
	nLocks := 1 + rng.Intn(2)
	nData := 4 + rng.Intn(6)
	numLocs := nLocks + nData
	streams := make([][]ev, nCPU)
	// lastWrite[lock] is the latest sync write event on that lock.
	lastWrite := make([]trace.EventRef, nLocks)
	lastRole := make([]memmodel.Role, nLocks)
	for i := range lastWrite {
		lastWrite[i] = trace.NoEvent
	}
	seq := make([]int, nLocks)
	steps := 10 + rng.Intn(30)
	for s := 0; s < steps; s++ {
		c := rng.Intn(nCPU)
		if rng.Float64() < 0.45 {
			// Sync event on a random lock.
			lk := rng.Intn(nLocks)
			var e ev
			switch rng.Intn(3) {
			case 0:
				e = syncEv(memmodel.RoleRelease, lk, seq[lk])
			case 1:
				e = syncEv(memmodel.RoleSyncOther, lk, seq[lk])
			default:
				if lastWrite[lk].Valid() {
					e = paired(lk, seq[lk], lastWrite[lk], lastRole[lk])
				} else {
					e = syncEv(memmodel.RoleAcquire, lk, seq[lk])
				}
			}
			seq[lk]++
			ref := trace.EventRef{CPU: c, Index: len(streams[c])}
			streams[c] = append(streams[c], e)
			if r := e.sync.Role; r == memmodel.RoleRelease || r == memmodel.RoleSyncOther {
				lastWrite[lk] = ref
				lastRole[lk] = r
			}
		} else {
			var reads, writes []int
			for k := 0; k < 1+rng.Intn(3); k++ {
				loc := nLocks + rng.Intn(nData)
				if rng.Intn(2) == 0 {
					reads = append(reads, loc)
				} else {
					writes = append(writes, loc)
				}
			}
			// Traces never hold two consecutive computation events on
			// one processor: extend the open one instead.
			if n := len(streams[c]); n > 0 && streams[c][n-1].comp {
				prev := &streams[c][n-1]
				reads = append(reads, pcLocs(prev.reads)...)
				writes = append(writes, pcLocs(prev.writes)...)
				*prev = comp(reads, writes)
				continue
			}
			streams[c] = append(streams[c], comp(reads, writes))
		}
	}
	return mkTrace(numLocs, streams...)
}

// Property: detector invariants hold on random traces.
func TestQuickDetectorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		if err := tr.Validate(); err != nil {
			// Random generator bug, not a detector property — surface it.
			t.Fatalf("random trace invalid: %v", err)
		}
		a, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}
		// (a) every race is a genuinely unordered conflicting pair.
		for _, r := range a.Races {
			if a.HBOrdered(r.A, r.B) {
				return false
			}
			if len(r.Locs) == 0 {
				return false
			}
		}
		// (b) each partition's events share one SCC of G′.
		sccs := a.AugSCC
		for _, p := range a.Partitions {
			for _, ev := range p.Events {
				if int(sccs.Comp[int(ev)]) != p.Component {
					return false
				}
			}
		}
		// (c) no other data-race partition reaches a first partition.
		for _, fi := range a.FirstPartitions {
			for j := range a.Partitions {
				if j == fi {
					continue
				}
				if a.PartitionPrecedes(j, fi) {
					return false
				}
			}
		}
		// (d) Theorem 4.1 both ways.
		if (len(a.FirstPartitions) == 0) != (len(a.Races) == 0) {
			return false
		}
		// (e) every data race belongs to exactly one partition.
		n := 0
		for _, p := range a.Partitions {
			n += len(p.Races)
		}
		return n == len(a.Races)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pcLocs lists the locations of synthetic PC provenance.
func pcLocs(pcs []trace.LocPC) []int {
	var out []int
	for _, e := range pcs {
		out = append(out, int(e.Loc))
	}
	return out
}
