package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"weakrace/internal/program"
	"weakrace/internal/trace"
)

// permuteTrace renames every location through perm, leaving structure
// untouched; the renamed trace declares locations up to perm's largest.
func permuteTrace(t *trace.Trace, perm []int) *trace.Trace {
	mapList := func(l []trace.LocPC) []trace.LocPC {
		var out []trace.LocPC
		for _, e := range l {
			out = append(out, trace.LocPC{Loc: program.Addr(perm[e.Loc]), PC: e.PC})
		}
		slices.SortFunc(out, func(a, b trace.LocPC) int { return cmp.Compare(a.Loc, b.Loc) })
		return out
	}
	streams := streamsOf(t)
	for _, evs := range streams {
		for i := range evs {
			e := &evs[i]
			if e.comp {
				e.reads, e.writes = mapList(e.reads), mapList(e.writes)
			} else {
				e.sync.Loc = program.Addr(perm[e.sync.Loc])
			}
		}
	}
	return mkTrace(slices.Max(perm)+1, streams...)
}

// Metamorphic property: renaming locations permutes race location sets
// and changes nothing else — race pairs, partitions, and first partitions
// are identical. Half the renamings spread the locations up to 2^20 (the
// most locations a trace declares), past the sweep's counting sort, so
// its radix path is held to the same result.
func TestQuickLocationRenamingEquivariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		perm := rng.Perm(tr.NumLocations)
		if seed%2 == 0 {
			for i := range perm {
				perm[i] = perm[i]<<16 | 3
			}
		}
		a1, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}
		a2, err := Analyze(permuteTrace(tr, perm), Options{})
		if err != nil {
			return false
		}
		if len(a1.Races) != len(a2.Races) ||
			a1.SyncRaces != a2.SyncRaces ||
			len(a1.Partitions) != len(a2.Partitions) ||
			len(a1.FirstPartitions) != len(a2.FirstPartitions) {
			return false
		}
		for i := range a1.Races {
			r1, r2 := a1.Races[i], a2.Races[i]
			if r1.A != r2.A || r1.B != r2.B {
				return false
			}
			var mapped []int
			for _, v := range r1.Locs {
				mapped = append(mapped, perm[v])
			}
			if !slices.Equal(setOf(mapped), r2.Locs) {
				return false
			}
		}
		for i := range a1.Partitions {
			if a1.Partitions[i].First != a2.Partitions[i].First {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Metamorphic property: appending a processor that touches only fresh
// locations preserves every existing race and partition verdict.
func TestQuickIrrelevantThreadInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		a1, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}

		// Extend with a processor working on brand-new locations.
		fresh := tr.NumLocations
		ext := mkTrace(tr.NumLocations+4, append(streamsOf(tr), []ev{
			comp([]int{fresh, fresh + 1}, []int{fresh + 2, fresh + 3}),
		})...)
		a2, err := Analyze(ext, Options{})
		if err != nil {
			return false
		}

		if len(a1.Races) != len(a2.Races) ||
			a1.SyncRaces != a2.SyncRaces ||
			len(a1.FirstPartitions) != len(a2.FirstPartitions) {
			return false
		}
		// Event ids of the original processors are unchanged
		// (processor-major numbering appends the new processor last), so
		// races must match exactly.
		for i := range a1.Races {
			if a1.Races[i].A != a2.Races[i].A || a1.Races[i].B != a2.Races[i].B ||
				!slices.Equal(a1.Races[i].Locs, a2.Races[i].Locs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
