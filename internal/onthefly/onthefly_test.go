package onthefly

import (
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

func runW(t *testing.T, w *workload.Workload, model memmodel.Model, seed int64) *sim.Execution {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	return r.Exec
}

func TestFigure1aDetected(t *testing.T) {
	e := runW(t, workload.Figure1a(), memmodel.SC, 1)
	res := Detect(e, Options{})
	if res.RaceCount() != 2 {
		t.Fatalf("races = %d, want 2: %v", res.RaceCount(), res.Races)
	}
	for r := range res.Races {
		if r.Loc != workload.Fig1X && r.Loc != workload.Fig1Y {
			t.Fatalf("unexpected race location: %v", r)
		}
	}
}

func TestFigure1bClean(t *testing.T) {
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 20; seed++ {
			e := runW(t, workload.Figure1b(), model, seed)
			res := Detect(e, Options{})
			if res.RaceCount() != 0 {
				t.Fatalf("%v seed %d: races = %v", model, seed, res.Races)
			}
		}
	}
}

func TestRaceFreeWorkloadsClean(t *testing.T) {
	workloads := []*workload.Workload{
		workload.LockedCounter(3, 3, -1),
		workload.ProducerConsumer(4, true),
		workload.BarrierPhases(2),
		workload.Random(workload.RandomParams{Seed: 3}),
	}
	for _, w := range workloads {
		for _, model := range []memmodel.Model{memmodel.SC, memmodel.WO, memmodel.RCsc} {
			for seed := int64(0); seed < 5; seed++ {
				e := runW(t, w, model, seed)
				res := Detect(e, Options{})
				if res.RaceCount() != 0 {
					t.Fatalf("%s %v seed %d: races = %v", w.Name, model, seed, res.Races)
				}
			}
		}
	}
}

// Unbounded on-the-fly detection agrees with the post-mortem detector's
// lower-level expansion on racy workloads.
func TestAgreesWithPostMortem(t *testing.T) {
	workloads := []*workload.Workload{
		workload.Figure1a(),
		workload.Figure2(),
		workload.ProducerConsumer(3, false),
		workload.LockedCounter(2, 2, 0),
	}
	for _, w := range workloads {
		for seed := int64(0); seed < 10; seed++ {
			e := runW(t, w, memmodel.WO, seed)
			otf := Detect(e, Options{})
			a, err := core.Analyze(trace.FromExecution(e), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pm := map[core.LowerLevelRace]bool{}
			for ri := range a.Races {
				for _, ll := range a.LowerLevel(a.Races[ri]) {
					pm[ll.Canonical()] = true
				}
			}
			for r := range pm {
				if !otf.Races[r] {
					t.Fatalf("%s seed %d: post-mortem race missed on the fly: %v", w.Name, seed, r)
				}
			}
			for r := range otf.Races {
				if !pm[r] {
					t.Fatalf("%s seed %d: on-the-fly race not in post-mortem set: %v", w.Name, seed, r)
				}
			}
		}
	}
}

// Bounded history loses races: three unsynchronized accesses to one
// location, history limit 1 — the oldest access is evicted before the
// last accessor arrives.
func TestBoundedHistoryLosesRaces(t *testing.T) {
	b := program.NewBuilder("w-w-r", 1, 1)
	b.Thread("P1").Write(program.At(0), program.Imm(1))
	b.Thread("P2").Write(program.At(0), program.Imm(2))
	b.Thread("P3").Read(0, program.At(0))
	p := b.MustBuild()
	// Find a seed where the ops execute in CPU order P1, P2, P3.
	for seed := int64(0); seed < 200; seed++ {
		r, err := sim.Run(p, sim.Config{Model: memmodel.SC, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Exec.Ops[0].CPU != 0 || r.Exec.Ops[1].CPU != 1 || r.Exec.Ops[2].CPU != 2 {
			continue
		}
		full := Detect(r.Exec, Options{})
		if full.RaceCount() != 3 {
			t.Fatalf("unbounded races = %d, want 3", full.RaceCount())
		}
		bounded := Detect(r.Exec, Options{HistoryLimit: 1})
		if bounded.RaceCount() != 2 {
			t.Fatalf("bounded races = %d, want 2 (one lost to eviction)", bounded.RaceCount())
		}
		if bounded.Evictions == 0 {
			t.Fatal("bounded run reported no evictions")
		}
		return
	}
	t.Skip("no seed produced the P1,P2,P3 order")
}

func TestPairingPolicyMatters(t *testing.T) {
	// P1 publishes x with a Test&Set write; P2 acquires it. Conservative
	// pairing does not transfer the clock, liberal does.
	b := program.NewBuilder("ts-publish", 2, 2)
	b.Thread("P1").
		Write(program.At(0), program.Imm(1)).
		TestAndSet(0, program.At(1))
	b.Thread("P2").
		Label("spin").
		SyncRead(0, program.At(1)).
		BranchZero(0, "spin").
		Read(1, program.At(0))
	p := b.MustBuild()
	r, err := sim.Run(p, sim.Config{Model: memmodel.WO, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cons := Detect(r.Exec, Options{Pairing: memmodel.ConservativePairing})
	if cons.RaceCount() == 0 {
		t.Fatal("conservative pairing should report the x race")
	}
	lib := Detect(r.Exec, Options{Pairing: memmodel.LiberalPairing})
	if lib.RaceCount() != 0 {
		t.Fatalf("liberal pairing should order the x accesses: %v", lib.Races)
	}
}

func TestSyncRacesNotReported(t *testing.T) {
	// Competing Test&Sets race on the lock location, but those are
	// synchronization races: counted, never reported.
	e := runW(t, workload.LockedCounter(3, 3, -1), memmodel.WO, 2)
	res := Detect(e, Options{})
	if res.RaceCount() != 0 {
		t.Fatalf("reported races = %v", res.Races)
	}
	if res.SyncRaces == 0 {
		t.Fatal("no sync races counted despite lock contention")
	}
}

// TestSyncRaceCountDeduped pins SyncRaces on a workload with exactly two
// static sync races. P2's counted loop executes each sync write twice from
// the same PC, so every cross-CPU pair is compared twice — a
// per-comparison tally would report 4; the static-identity count is 2.
func TestSyncRaceCountDeduped(t *testing.T) {
	b := program.NewBuilder("two-sync-races", 2, 1)
	b.Thread("P1").
		Unset(program.At(0)).
		Unset(program.At(1))
	b.Thread("P2").
		Const(0, 2).
		Label("loop").
		SyncWrite(program.At(0), program.Imm(1)).
		SyncWrite(program.At(1), program.Imm(1)).
		AddImm(0, 0, -1).
		BranchNotZero(0, "loop")
	p := b.MustBuild()
	for seed := int64(0); seed < 10; seed++ {
		r, err := sim.Run(p, sim.Config{Model: memmodel.WO, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res := Detect(r.Exec, Options{})
		if res.SyncRaces != 2 {
			t.Fatalf("seed %d: SyncRaces = %d, want 2", seed, res.SyncRaces)
		}
		if res.RaceCount() != 0 {
			t.Fatalf("seed %d: sync-only workload reported data races: %v", seed, res.Races)
		}
	}
}

func TestCostCounters(t *testing.T) {
	e := runW(t, workload.Figure1a(), memmodel.SC, 1)
	res := Detect(e, Options{})
	if res.OpsProcessed != len(e.Ops) {
		t.Fatalf("OpsProcessed = %d, want %d", res.OpsProcessed, len(e.Ops))
	}
	if res.Comparisons == 0 {
		t.Fatal("no comparisons counted")
	}
}
