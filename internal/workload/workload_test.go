package workload

import (
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
)

// run simulates a workload and returns the detector's analysis.
func run(t *testing.T, w *Workload, model memmodel.Model, seed int64) (*sim.Result, *core.Analysis) {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !r.Completed {
		t.Fatalf("%s: did not complete", w.Name)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return r, a
}

func TestFigure1aAlwaysRaces(t *testing.T) {
	w := Figure1a()
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 20; seed++ {
			_, a := run(t, w, model, seed)
			if a.RaceFree() {
				t.Fatalf("%v seed %d: figure 1a race-free", model, seed)
			}
		}
	}
}

func TestFigure1bNeverRaces(t *testing.T) {
	w := Figure1b()
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 20; seed++ {
			_, a := run(t, w, model, seed)
			if !a.RaceFree() {
				t.Fatalf("%v seed %d: figure 1b racy", model, seed)
			}
		}
	}
}

func TestFigure2StaleDequeueReachableOnWeak(t *testing.T) {
	r, seed, ok := FindFig2StaleSeed(sim.Config{Model: memmodel.WO, RetireProb: 0.15}, 5000)
	if !ok {
		t.Fatal("no WO seed in [0,5000) produced the Figure 2b stale dequeue")
	}
	// The stale dequeue must come with a stale-read witness.
	if r.Exec.StaleReads == 0 {
		t.Fatalf("seed %d: stale dequeue without stale-read witness", seed)
	}
	if !ClassifyFig2(r.Exec).TookQueue {
		t.Fatalf("seed %d: stale dequeue without taking the queue", seed)
	}
}

func TestFig2StaleScriptDeterministic(t *testing.T) {
	for _, model := range []memmodel.Model{memmodel.WO, memmodel.RCsc, memmodel.DRF0, memmodel.DRF1} {
		for seed := int64(0); seed < 10; seed++ {
			r, err := RunFig2Stale(model, seed)
			if err != nil {
				t.Fatalf("%v seed %d: %v", model, seed, err)
			}
			if r.Exec.StaleReads == 0 {
				t.Fatalf("%v seed %d: no stale-read witness", model, seed)
			}
			if !r.Completed {
				t.Fatalf("%v seed %d: did not complete", model, seed)
			}
		}
	}
}

func TestFig2ScriptFailsOnSC(t *testing.T) {
	// Under SC nothing is buffered, so the scripted retirement must be
	// reported as inapplicable rather than silently skipped.
	w := Figure2()
	_, err := sim.Run(w.Prog, sim.Config{
		Model: memmodel.SC, InitMemory: w.InitMemory, Script: Fig2StaleScript(),
	})
	if err == nil {
		t.Fatal("scripted retirement applied under SC")
	}
}

// TSO's FIFO store buffer is immune to the Figure 2 bug class: the queue
// write always becomes visible before the QEmpty write, so the stale
// dequeue is unreachable — by seed search and by scripted construction.
func TestFigure2StaleDequeueUnreachableOnTSO(t *testing.T) {
	if _, seed, ok := FindFig2StaleSeed(sim.Config{Model: memmodel.TSO, RetireProb: 0.15}, 3000); ok {
		t.Fatalf("seed %d: TSO produced the stale dequeue despite FIFO stores", seed)
	}
	if _, err := RunFig2Stale(memmodel.TSO, 1); err == nil {
		t.Fatal("scripted out-of-order retirement applied on TSO")
	}
}

func TestFigure2StaleDequeueUnreachableOnSC(t *testing.T) {
	w := Figure2()
	for seed := int64(0); seed < 500; seed++ {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.SC, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		if ClassifyFig2(r.Exec).StaleDequeue {
			t.Fatalf("seed %d: SC execution dequeued the stale address", seed)
		}
	}
}

func TestFigure2AlwaysHasQueueRaces(t *testing.T) {
	// Whatever the interleaving, P1's queue writes race with P2's reads
	// when P2 takes the queue branch.
	w := Figure2()
	for seed := int64(0); seed < 50; seed++ {
		r, a := run(t, w, memmodel.WO, seed)
		if ClassifyFig2(r.Exec).TookQueue && a.RaceFree() {
			t.Fatalf("seed %d: P2 dequeued but no race reported", seed)
		}
	}
}

func TestProducerConsumer(t *testing.T) {
	synced := ProducerConsumer(4, true)
	buggy := ProducerConsumer(4, false)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 10; seed++ {
			if _, a := run(t, synced, model, seed); !a.RaceFree() {
				t.Fatalf("%v seed %d: synced producer-consumer racy", model, seed)
			}
			if _, a := run(t, buggy, model, seed); a.RaceFree() {
				t.Fatalf("%v seed %d: unsynced producer-consumer race-free", model, seed)
			}
		}
	}
}

func TestProducerConsumerDelivery(t *testing.T) {
	// With release/acquire flags the consumer must read every item's
	// value, on every model.
	w := ProducerConsumer(4, true)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 20; seed++ {
			r, _ := run(t, w, model, seed)
			var got []int64
			for _, op := range r.Exec.OpsOf(1) {
				if op.Kind == sim.OpDataRead {
					got = append(got, op.Value)
				}
			}
			if len(got) != 4 {
				t.Fatalf("%v seed %d: consumer read %d items", model, seed, len(got))
			}
			for i, v := range got {
				if v != int64(100+i) {
					t.Fatalf("%v seed %d: item %d = %d, want %d", model, seed, i, v, 100+i)
				}
			}
		}
	}
}

func TestLockedCounter(t *testing.T) {
	clean := LockedCounter(3, 3, -1)
	buggy := LockedCounter(3, 3, 1)
	for _, model := range memmodel.All {
		racySeeds := 0
		for seed := int64(0); seed < 15; seed++ {
			if _, a := run(t, clean, model, seed); !a.RaceFree() {
				t.Fatalf("%v seed %d: clean locked counter racy", model, seed)
			}
			// The injected race is dynamic: it occurs only in executions
			// where another thread's access is concurrent with the
			// unlocked access, so count racy seeds rather than requiring
			// every seed to race.
			if _, a := run(t, buggy, model, seed); !a.RaceFree() {
				racySeeds++
			}
		}
		if racySeeds == 0 {
			t.Fatalf("%v: buggy locked counter never raced in 15 seeds", model)
		}
	}
}

func TestLockedCounterFinalValue(t *testing.T) {
	w := LockedCounter(3, 4, -1)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 10; seed++ {
			r, _ := run(t, w, model, seed)
			if r.FinalMemory[0] != 12 {
				t.Fatalf("%v seed %d: counter = %d, want 12", model, seed, r.FinalMemory[0])
			}
		}
	}
}

func TestDekkerCorrectUnderSC(t *testing.T) {
	const iters = 3
	w := Dekker(iters)
	for seed := int64(0); seed < 40; seed++ {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.SC, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			continue // livelock window; the scheduler usually breaks symmetry
		}
		if r.FinalMemory[0] != 2*iters {
			t.Fatalf("seed %d: SC Dekker counter = %d, want %d", seed, r.FinalMemory[0], 2*iters)
		}
		// Data races exist even under SC: the flags are data operations.
		a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.RaceFree() {
			t.Fatalf("seed %d: Dekker reported race-free (flags are data ops)", seed)
		}
	}
}

func TestDekkerBrokenOnWeakModels(t *testing.T) {
	const iters = 3
	w := Dekker(iters)
	for _, model := range []memmodel.Model{memmodel.WO, memmodel.RCsc} {
		broken := false
		for seed := int64(0); seed < 300 && !broken; seed++ {
			r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, RetireProb: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if r.Completed && r.FinalMemory[0] != 2*iters {
				broken = true
			}
		}
		if !broken {
			t.Fatalf("%v: Dekker never lost an update in 300 seeds", model)
		}
	}
}

func TestDekkerFencedCorrectEverywhereYetRacy(t *testing.T) {
	const iters = 3
	w := DekkerFenced(iters)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 20; seed++ {
			r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				continue
			}
			if r.FinalMemory[0] != 2*iters {
				t.Fatalf("%v seed %d: counter = %d, want %d (fences must restore exclusion)",
					model, seed, r.FinalMemory[0], 2*iters)
			}
			a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a.RaceFree() {
				t.Fatalf("%v seed %d: fenced Dekker reported race-free — flags are data ops", model, seed)
			}
		}
	}
}

func TestTasPublishPairingPolicies(t *testing.T) {
	w := TasPublish(3)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 10; seed++ {
			r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.FromExecution(r.Exec)
			cons, err := core.Analyze(tr, core.Options{Pairing: memmodel.ConservativePairing})
			if err != nil {
				t.Fatal(err)
			}
			if cons.RaceFree() {
				t.Fatalf("%v seed %d: conservative pairing missed the payload races", model, seed)
			}
			lib, err := core.Analyze(tr, core.Options{Pairing: memmodel.LiberalPairing})
			if err != nil {
				t.Fatal(err)
			}
			if !lib.RaceFree() {
				t.Fatalf("%v seed %d: liberal pairing reported races", model, seed)
			}
			// Under liberal pairing (valid for WO/DRF0 hardware) P2 always
			// reads the fresh payload on those models.
			if model == memmodel.WO || model == memmodel.DRF0 {
				for _, op := range r.Exec.OpsOf(1) {
					if op.Kind == sim.OpDataRead && op.Value < 100 {
						t.Fatalf("%v seed %d: stale payload read %v despite drained T&S", model, seed, op)
					}
				}
			}
		}
	}
}

func TestWriteBurst(t *testing.T) {
	const cpus, burst, iters = 3, 6, 3
	w := WriteBurst(cpus, burst, iters)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 8; seed++ {
			r, a := run(t, w, model, seed)
			if !a.RaceFree() {
				t.Fatalf("%v seed %d: write-burst racy", model, seed)
			}
			if r.FinalMemory[0] != cpus*iters {
				t.Fatalf("%v seed %d: counter = %d, want %d", model, seed, r.FinalMemory[0], cpus*iters)
			}
		}
	}
	// RCsc must beat WO here: the burst is pending at acquire time.
	var wo, rcsc int64
	for seed := int64(0); seed < 40; seed++ {
		rw, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed, RetireProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sim.Run(w.Prog, sim.Config{Model: memmodel.RCsc, Seed: seed, RetireProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		wo += rw.Makespan()
		rcsc += rr.Makespan()
	}
	if rcsc >= wo {
		t.Fatalf("RCsc makespan %d not below WO %d on write-burst", rcsc, wo)
	}
}

func TestRaceChainPartitionStructure(t *testing.T) {
	const stages = 4
	w := RaceChain(stages)
	for _, model := range []memmodel.Model{memmodel.SC, memmodel.WO} {
		for seed := int64(0); seed < 15; seed++ {
			_, a := run(t, w, model, seed)
			if len(a.Races) != stages {
				t.Fatalf("%v seed %d: data races = %d, want %d", model, seed, len(a.Races), stages)
			}
			if len(a.Partitions) != stages {
				t.Fatalf("%v seed %d: partitions = %d, want %d", model, seed, len(a.Partitions), stages)
			}
			if len(a.FirstPartitions) != 1 {
				t.Fatalf("%v seed %d: first partitions = %d, want 1", model, seed, len(a.FirstPartitions))
			}
			// The first partition must be the stage-0 race.
			first := a.Partitions[a.FirstPartitions[0]]
			r := a.Races[first.Races[0]]
			if !r.Locs.Contains(0) {
				t.Fatalf("%v seed %d: first partition on %s, want location 0", model, seed, r.Locs)
			}
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	w := BarrierPhases(3)
	for _, model := range memmodel.All {
		for seed := int64(0); seed < 10; seed++ {
			r, a := run(t, w, model, seed)
			if !a.RaceFree() {
				t.Fatalf("%v seed %d: barrier workload racy", model, seed)
			}
			// Phase 2 reads must all see phase-1 values (DRF guarantee).
			for c := 0; c < 3; c++ {
				for _, op := range r.Exec.OpsOf(c) {
					if op.Kind == sim.OpDataRead && op.Value == 0 {
						t.Fatalf("%v seed %d: worker %d read unwritten cell %d", model, seed, c, op.Loc)
					}
				}
			}
		}
	}
}

func TestRandomRaceFreeByConstruction(t *testing.T) {
	for genSeed := int64(0); genSeed < 5; genSeed++ {
		w := Random(RandomParams{Seed: genSeed, CPUs: 3, Segments: 4})
		for _, model := range []memmodel.Model{memmodel.SC, memmodel.WO, memmodel.RCsc} {
			for seed := int64(0); seed < 5; seed++ {
				if _, a := run(t, w, model, seed); !a.RaceFree() {
					t.Fatalf("gen %d %v seed %d: race-free random program reported racy",
						genSeed, model, seed)
				}
			}
		}
	}
}

func TestRandomUnlockedInjectsRaces(t *testing.T) {
	// With every segment unlocked and plenty of shared traffic, races are
	// all but guaranteed; require at least one racy seed per generation.
	for genSeed := int64(0); genSeed < 5; genSeed++ {
		w := Random(RandomParams{
			Seed: genSeed, CPUs: 3, Segments: 5, UnlockedFraction: 1.0, SharedFraction: 0.9,
		})
		racy := false
		for seed := int64(0); seed < 10 && !racy; seed++ {
			_, a := run(t, w, memmodel.WO, seed)
			racy = !a.RaceFree()
		}
		if !racy {
			t.Fatalf("gen %d: fully unlocked random program never raced", genSeed)
		}
	}
}

func TestRandomDeterministicGeneration(t *testing.T) {
	a := Random(RandomParams{Seed: 7})
	b := Random(RandomParams{Seed: 7})
	if a.Prog.Disassemble() != b.Prog.Disassemble() {
		t.Fatal("same seed generated different programs")
	}
	c := Random(RandomParams{Seed: 8})
	if a.Prog.Disassemble() == c.Prog.Disassemble() {
		t.Fatal("different seeds generated identical programs")
	}
}

func TestSharedOwnedPartition(t *testing.T) {
	p := RandomParams{SharedLocs: 7, Locks: 3}
	total := 0
	for l := 0; l < 3; l++ {
		total += sharedOwned(p, l)
	}
	if total != 7 {
		t.Fatalf("lock ownership covers %d locations, want 7", total)
	}
}

func TestWorkloadString(t *testing.T) {
	w := Figure1a()
	if w.String() == "" {
		t.Fatal("empty String")
	}
}
