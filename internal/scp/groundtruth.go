package scp

import (
	"fmt"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
)

// RaceSet is a set of lower-level data races, keyed by static identity —
// the currency in which "this race occurs in some sequentially consistent
// execution" (Theorem 4.2) is checked.
type RaceSet map[core.LowerLevelRace]bool

// Add inserts the canonical form of the race.
func (s RaceSet) Add(r core.LowerLevelRace) { s[r.Canonical()] = true }

// Contains reports membership of the canonical form.
func (s RaceSet) Contains(r core.LowerLevelRace) bool { return s[r.Canonical()] }

// Union merges other into s.
func (s RaceSet) Union(other RaceSet) {
	for r := range other {
		s[r] = true
	}
}

// collectRaces runs the detector on an execution and adds every
// lower-level data race to the set.
func collectRaces(e *sim.Execution, into RaceSet) error {
	a, err := core.Analyze(trace.FromExecution(e), core.Options{})
	if err != nil {
		return err
	}
	for ri := range a.Races {
		for _, ll := range a.LowerLevel(a.Races[ri]) {
			into.Add(ll)
		}
	}
	return nil
}

// EnumLimits bounds an exhaustive enumeration of SC executions.
type EnumLimits struct {
	// MaxExecutions stops after this many completed executions
	// (default 100000).
	MaxExecutions int
	// MaxStepsPerPath abandons a schedule after this many instructions
	// (spin loops make the schedule tree infinite; abandoned paths are
	// counted, and their races are not collected). Default 400.
	MaxStepsPerPath int
}

func (l EnumLimits) withDefaults() EnumLimits {
	if l.MaxExecutions == 0 {
		l.MaxExecutions = 100000
	}
	if l.MaxStepsPerPath == 0 {
		l.MaxStepsPerPath = 400
	}
	return l
}

// GroundTruth is the set of data races known to occur in sequentially
// consistent executions of a program.
type GroundTruth struct {
	// Races holds the lower-level data races observed.
	Races RaceSet
	// Executions is the number of SC executions analyzed.
	Executions int
	// Truncated counts abandoned schedules (step limit) or a hit of the
	// execution limit; when zero, Races is exhaustive for the program.
	Truncated int
}

// Complete reports whether the enumeration covered every SC execution.
func (g *GroundTruth) Complete() bool { return g.Truncated == 0 }

// EnumerateSC explores every sequentially consistent schedule of the
// program (depth-first over processor choices) and collects every data
// race any of them exhibits. Exact but exponential: use it on
// litmus-sized programs and fall back to SampleSC elsewhere.
func EnumerateSC(p *program.Program, initMemory map[program.Addr]int64, lim EnumLimits) (*GroundTruth, error) {
	lim = lim.withDefaults()
	root, err := sim.NewStepper(p, initMemory)
	if err != nil {
		return nil, err
	}
	gt := &GroundTruth{Races: RaceSet{}}
	var dfs func(s *sim.Stepper) error
	dfs = func(s *sim.Stepper) error {
		if gt.Executions >= lim.MaxExecutions {
			gt.Truncated++
			return nil
		}
		runnable := s.Runnable()
		if len(runnable) == 0 {
			gt.Executions++
			return collectRaces(s.Execution(), gt.Races)
		}
		if s.Steps() >= lim.MaxStepsPerPath {
			gt.Truncated++
			return nil
		}
		for _, c := range runnable {
			child := s.Clone()
			if err := child.Step(c); err != nil {
				return err
			}
			if err := dfs(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(root); err != nil {
		return nil, err
	}
	return gt, nil
}

// SampleSC runs the program under SC with numSeeds random schedules and
// collects the data races observed. Sound (every collected race occurs in
// an SC execution) but not exhaustive; Truncated is always reported as
// numSeeds to signal incompleteness.
func SampleSC(p *program.Program, initMemory map[program.Addr]int64, numSeeds int) (*GroundTruth, error) {
	gt := &GroundTruth{Races: RaceSet{}, Truncated: numSeeds}
	for seed := int64(0); seed < int64(numSeeds); seed++ {
		r, err := sim.Run(p, sim.Config{
			Model: memmodel.SC, Seed: seed, InitMemory: initMemory,
		})
		if err != nil {
			return nil, fmt.Errorf("scp: sample seed %d: %w", seed, err)
		}
		if !r.Completed {
			continue
		}
		gt.Executions++
		if err := collectRaces(r.Exec, gt.Races); err != nil {
			return nil, err
		}
	}
	return gt, nil
}
