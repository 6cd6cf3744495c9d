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

// postMortemFirstSet returns the lower-level races of the first
// partitions (and the full data-race set) from the post-mortem detector.
func postMortemFirstSet(t *testing.T, e *sim.Execution) (first, all map[core.LowerLevelRace]bool) {
	t.Helper()
	a, err := core.Analyze(trace.FromExecution(e), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first = map[core.LowerLevelRace]bool{}
	all = map[core.LowerLevelRace]bool{}
	for ri := range a.Races {
		for _, ll := range a.LowerLevel(a.Races[ri]) {
			all[ll.Canonical()] = true
		}
	}
	for _, pi := range a.FirstPartitions {
		for _, ri := range a.Partitions[pi].Races {
			for _, ll := range a.LowerLevel(a.Races[ri]) {
				first[ll.Canonical()] = true
			}
		}
	}
	return first, all
}

// On the race-chain workload the online classification must match the
// post-mortem first partitions exactly: stage 0 first, the rest
// downstream.
func TestFirstRacesOnChain(t *testing.T) {
	w := workload.RaceChain(4)
	for seed := int64(0); seed < 20; seed++ {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res := DetectFirstRaces(r.Exec, Options{})
		pmFirst, pmAll := postMortemFirstSet(t, r.Exec)
		if len(res.First) != len(pmFirst) {
			t.Fatalf("seed %d: online first = %v, post-mortem first = %v", seed, res.First, pmFirst)
		}
		for race := range res.First {
			if !pmFirst[race] {
				t.Fatalf("seed %d: online first race not in post-mortem first partition: %v", seed, race)
			}
		}
		if got := len(res.First) + len(res.Downstream); got != len(pmAll) {
			t.Fatalf("seed %d: online classified %d races, post-mortem found %d", seed, got, len(pmAll))
		}
	}
}

// The Figure 2b anomaly: the queue races are first, the region races
// downstream — matching the paper's Figure 3 partitioning, online.
func TestFirstRacesOnFigure2(t *testing.T) {
	r, err := workload.RunFig2Stale(memmodel.WO, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := DetectFirstRaces(r.Exec, Options{})
	if len(res.First) == 0 || len(res.Downstream) == 0 {
		t.Fatalf("first=%v downstream=%v", res.First, res.Downstream)
	}
	// Every online first race is a queue race. (The converse need not
	// hold: at operation granularity the Q race is hb1-after the QEmpty
	// race on the same processors, so Definition 3.3 makes it downstream;
	// the event-level post-mortem detector groups the two into one
	// first-partition race.)
	for race := range res.First {
		if race.Loc != workload.Fig2Q && race.Loc != workload.Fig2QEmpty {
			t.Fatalf("non-queue race classified first: %v", race)
		}
	}
	// Every region race is downstream.
	for race := range res.First {
		if race.Loc >= workload.Fig2RegionP3 {
			t.Fatalf("region race classified first: %v", race)
		}
	}
	regionDownstream := false
	for race := range res.Downstream {
		if race.Loc >= workload.Fig2RegionP3 {
			regionDownstream = true
		}
	}
	if !regionDownstream {
		t.Fatal("no region race classified downstream")
	}
}

// Race-free executions yield no races in either class.
func TestFirstRacesRaceFree(t *testing.T) {
	w := workload.LockedCounter(3, 3, -1)
	for seed := int64(0); seed < 10; seed++ {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.RCsc, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res := DetectFirstRaces(r.Exec, Options{})
		if len(res.First)+len(res.Downstream) != 0 {
			t.Fatalf("seed %d: races on race-free workload: %v %v", seed, res.First, res.Downstream)
		}
	}
}

// Soundness of the approximation: every online first race is a race the
// post-mortem detector also finds, and every post-mortem first-partition
// race chain member classified "first" online is genuinely unaffected.
// (The online classification may split one entangled post-mortem
// partition into first + downstream members; it must never classify a
// race outside the post-mortem race set.)
func TestFirstRacesSubsetOfPostMortem(t *testing.T) {
	workloads := []*workload.Workload{
		workload.ProducerConsumer(4, false),
		workload.LockedCounter(3, 3, 1),
		workload.Random(workload.RandomParams{Seed: 9, UnlockedFraction: 0.5}),
	}
	for _, w := range workloads {
		for seed := int64(0); seed < 10; seed++ {
			r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed, InitMemory: w.InitMemory})
			if err != nil {
				t.Fatal(err)
			}
			res := DetectFirstRaces(r.Exec, Options{})
			_, pmAll := postMortemFirstSet(t, r.Exec)
			// Compare at (cpu, loc, mode) granularity: an event records
			// one PC per location and mode, while the online detector
			// distinguishes every program point.
			type coarse struct {
				xCPU, yCPU int
				loc        program.Addr
				xW, yW     bool
			}
			proj := func(ll core.LowerLevelRace) coarse {
				return coarse{ll.X.CPU, ll.Y.CPU, ll.Loc, ll.XWrites, ll.YWrites}
			}
			pmC := map[coarse]bool{}
			for race := range pmAll {
				pmC[proj(race)] = true
			}
			for race := range res.First {
				if !pmC[proj(race)] {
					t.Fatalf("%s seed %d: online first race unknown to post-mortem: %v", w.Name, seed, race)
				}
			}
			for race := range res.Downstream {
				if !pmC[proj(race)] {
					t.Fatalf("%s seed %d: online downstream race unknown to post-mortem: %v", w.Name, seed, race)
				}
			}
			// At least one first race whenever any race exists.
			if len(pmAll) > 0 && len(res.First) == 0 {
				t.Fatalf("%s seed %d: races exist but none classified first", w.Name, seed)
			}
		}
	}
}
