package crosscheck

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/lockset"
	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/scp"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// randomWorkload draws a workload with tunable raciness.
func randomWorkload(rng *rand.Rand, racy bool) *workload.Workload {
	p := workload.RandomParams{
		Seed:          rng.Int63(),
		CPUs:          2 + rng.Intn(3),
		Segments:      2 + rng.Intn(5),
		OpsPerSegment: 2 + rng.Intn(4),
		Locks:         1 + rng.Intn(2),
	}
	if racy {
		p.UnlockedFraction = 0.2 + rng.Float64()*0.6
		p.SharedFraction = 0.5 + rng.Float64()*0.4
	}
	return workload.Random(p)
}

func weakModel(rng *rand.Rand) memmodel.Model {
	models := []memmodel.Model{memmodel.WO, memmodel.RCsc, memmodel.DRF0, memmodel.DRF1}
	return models[rng.Intn(len(models))]
}

// Post-mortem and unbounded on-the-fly detection must agree exactly on
// the set of lower-level data races, for every workload and model. The
// corpus is the frozen workload.Corpus(60, 1) — the same 60 traces the
// wrserve acceptance test and window study run against.
func TestDifferentialPostMortemVsOnTheFly(t *testing.T) {
	for trial, c := range workload.Corpus(60, 1) {
		w, model, seed := c.Workload, c.Model, c.Seed
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pm := map[core.LowerLevelRace]bool{}
		for ri := range a.Races {
			for _, ll := range a.LowerLevel(a.Races[ri]) {
				pm[ll.Canonical()] = true
			}
		}
		otf := onthefly.Detect(r.Exec, onthefly.Options{})
		for ll := range pm {
			if !otf.Races[ll] {
				t.Fatalf("trial %d (%s, %v, seed %d): post-mortem race missed on the fly: %v",
					trial, w.Name, model, seed, ll)
			}
		}
		// The converse may differ only by PC granularity: the on-the-fly
		// detector distinguishes every program point, while an event
		// records one PC per (location, mode). Project both sides down to
		// (cpu, loc, mode) pairs, which must agree exactly.
		type coarse struct {
			xCPU, yCPU int
			loc        int
			xW, yW     bool
		}
		proj := func(ll core.LowerLevelRace) coarse {
			return coarse{ll.X.CPU, ll.Y.CPU, int(ll.Loc), ll.XWrites, ll.YWrites}
		}
		pmC := map[coarse]bool{}
		for ll := range pm {
			pmC[proj(ll)] = true
		}
		for ll := range otf.Races {
			if !pmC[proj(ll)] {
				t.Fatalf("trial %d (%s, %v, seed %d): on-the-fly race with no post-mortem counterpart: %v",
					trial, w.Name, model, seed, ll)
			}
		}
	}
}

// The DRF guarantee as a differential test: whenever the detector says
// race-free, the exact verifier must find the weak execution sequentially
// consistent.
func TestDifferentialRaceFreeImpliesSC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		w := randomWorkload(rng, trial%3 == 0)
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.RaceFree() {
			continue
		}
		sc, decided := scp.VerifySC(r.Exec, 1<<21)
		if !decided {
			continue // budget blown on a big execution; not a failure
		}
		checked++
		if !sc {
			t.Fatalf("trial %d (%s, %v, seed %d): race-free weak execution is not SC — Condition 3.4(1) violated",
				trial, w.Name, model, seed)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d race-free executions checked; generator drifted", checked)
	}
}

// The simulator's conservative DefinitelySC witness never contradicts the
// exact verifier.
func TestDifferentialDefinitelySCIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	confirmed := 0
	for trial := 0; trial < 40; trial++ {
		w := randomWorkload(rng, true)
		model := weakModel(rng)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: rng.Int63n(1000), InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exec.DefinitelySC() {
			continue
		}
		sc, decided := scp.VerifySC(r.Exec, 1<<21)
		if decided && !sc {
			t.Fatalf("trial %d: DefinitelySC execution rejected by the exact verifier", trial)
		}
		confirmed++
	}
	_ = confirmed // DefinitelySC is rare on weak models; zero hits is fine
}

// Codec agreement: binary and text round trips produce analyses with
// identical race reports.
func TestDifferentialCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		w := randomWorkload(rng, true)
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: rng.Int63n(1000), InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)

		var bin, txt bytes.Buffer
		if err := trace.Encode(&bin, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeText(&txt, tr); err != nil {
			t.Fatal(err)
		}
		fromBin, err := trace.Decode(&bin)
		if err != nil {
			t.Fatal(err)
		}
		fromTxt, err := trace.DecodeText(&txt)
		if err != nil {
			t.Fatal(err)
		}

		aMem, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr2 := range []*trace.Trace{fromBin, fromTxt} {
			a2, err := core.Analyze(tr2, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(a2.Races) != len(aMem.Races) ||
				a2.SyncRaces != aMem.SyncRaces ||
				len(a2.Partitions) != len(aMem.Partitions) ||
				len(a2.FirstPartitions) != len(aMem.FirstPartitions) {
				t.Fatalf("trial %d codec %d: analysis differs after round trip", trial, i)
			}
			for j := range aMem.Races {
				if aMem.Races[j].A != a2.Races[j].A || aMem.Races[j].B != a2.Races[j].B ||
					!slices.Equal(aMem.Races[j].Locs, a2.Races[j].Locs) {
					t.Fatalf("trial %d codec %d: race %d differs", trial, i, j)
				}
			}
		}
	}
}

// Lockset vs happens-before on lock-disciplined random programs: a
// program whose every shared access is under its owning lock must be
// clean for BOTH detectors, on every model and seed.
func TestDifferentialLocksetOnDisciplinedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		w := randomWorkload(rng, false) // UnlockedFraction 0: disciplined
		model := weakModel(rng)
		seed := rng.Int63n(1000)
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.RaceFree() {
			t.Fatalf("trial %d: disciplined program racy under happens-before", trial)
		}
		if ls := lockset.Check(r.Exec); len(ls.Findings) != 0 {
			t.Fatalf("trial %d (%s, %v, seed %d): disciplined program flagged by lockset: %+v",
				trial, w.Name, model, seed, ls.Findings)
		}
	}
}

// A large workload through the complete pipeline: 8 processors, long
// segment chains, thousands of events — catches accidental quadratic or
// stack-depth blowups in the graph machinery.
func TestLargePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("large pipeline test skipped in -short mode")
	}
	w := workload.Random(workload.RandomParams{
		Seed: 42, CPUs: 8, Segments: 48, OpsPerSegment: 6,
		SharedLocs: 32, Locks: 4, UnlockedFraction: 0.15,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("large run did not complete")
	}
	tr := trace.FromExecution(r.Exec)
	if tr.NumEvents() < 1000 {
		t.Fatalf("expected a large trace, got %d events", tr.NumEvents())
	}
	a, err := core.Analyze(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The detector's structural invariants at scale.
	if (len(a.FirstPartitions) == 0) != (len(a.Races) == 0) {
		t.Fatal("Theorem 4.1 violated at scale")
	}
	for ri := range a.Races {
		race := a.Races[ri]
		if a.HBOrdered(race.A, race.B) {
			t.Fatal("ordered pair reported as race at scale")
		}
	}
	// The on-the-fly detector agrees on the coarse race set.
	otf := onthefly.Detect(r.Exec, onthefly.Options{})
	pm := 0
	for ri := range a.Races {
		pm += len(a.LowerLevel(a.Races[ri]))
	}
	if (pm == 0) != (otf.RaceCount() == 0) {
		t.Fatalf("detectors disagree at scale: pm=%d otf=%d", pm, otf.RaceCount())
	}
}

// Corrupting any single byte of a binary trace must never produce a
// silently-wrong trace: decoding either fails, or yields a trace that
// still validates (a benign flip, e.g. inside the program name or a PC).
func TestBinaryCodecCorruptionRobust(t *testing.T) {
	w := workload.Figure2()
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 3, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.FromExecution(r.Exec)); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for pos := 0; pos < len(enc); pos++ {
		for _, flip := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), enc...)
			corrupt[pos] ^= flip
			tr, err := trace.Decode(bytes.NewReader(corrupt))
			if err != nil {
				continue // rejected: good
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("pos %d flip %#x: Decode returned an invalid trace: %v", pos, flip, err)
			}
			// Accepted and valid: the analysis must not panic.
			if _, err := core.Analyze(tr, core.Options{}); err != nil {
				t.Fatalf("pos %d flip %#x: analysis failed on validated trace: %v", pos, flip, err)
			}
		}
	}
}
