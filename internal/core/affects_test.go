package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weakrace/internal/memmodel"
)

// Two independent races: neither affects the other; both unaffected.
func TestAffectsIndependentRaces(t *testing.T) {
	tr := mkTrace(2,
		[]ev{comp(nil, []int{0})},
		[]ev{comp([]int{0}, nil)},
		[]ev{comp(nil, []int{1})},
		[]ev{comp([]int{1}, nil)},
	)
	a := analyze(t, tr, Options{})
	if len(a.Races) != 2 {
		t.Fatalf("races = %d", len(a.Races))
	}
	if a.Affects(0, 1) || a.Affects(1, 0) {
		t.Fatal("independent races affect each other")
	}
	if !a.Affects(0, 0) || !a.Affects(1, 1) {
		t.Fatal("races must trivially affect themselves")
	}
	for ri := range a.Races {
		if !a.Unaffected(ri) {
			t.Fatalf("race %d should be unaffected", ri)
		}
	}
	if len(a.FirstPartitions) != 2 {
		t.Fatalf("first partitions = %d, want 2", len(a.FirstPartitions))
	}
}

// A race chain: stage 0's race affects stage 1's race but not conversely.
func TestAffectsChain(t *testing.T) {
	// P1: comp{W0}, rel(2), comp{W1}; P2: comp{R0}, rel(3), comp{R1}.
	p1 := []ev{
		comp(nil, []int{0}),
		syncEv(memmodel.RoleRelease, 2, 0),
		comp(nil, []int{1}),
	}
	p2 := []ev{
		comp([]int{0}, nil),
		syncEv(memmodel.RoleRelease, 3, 0),
		comp([]int{1}, nil),
	}
	a := analyze(t, mkTrace(4, p1, p2), Options{})
	if len(a.Races) != 2 {
		t.Fatalf("data races = %d", len(a.Races))
	}
	// Identify which race is on location 0.
	r0, r1 := 0, 1
	if !a.Races[0].Locs.Contains(0) {
		r0, r1 = 1, 0
	}
	if !a.Affects(r0, r1) {
		t.Fatal("stage-0 race should affect stage-1 race")
	}
	if a.Affects(r1, r0) {
		t.Fatal("stage-1 race should not affect stage-0 race")
	}
	if !a.Unaffected(r0) || a.Unaffected(r1) {
		t.Fatal("unaffected classification wrong")
	}
	if got := a.AffectedBy(r1); len(got) != 1 || got[0] != r0 {
		t.Fatalf("AffectedBy(stage1) = %v", got)
	}
	if a.RaceOfPartition(r0) == a.RaceOfPartition(r1) {
		t.Fatal("chain races must be in different partitions")
	}
}

// Property: a data race is unaffected iff its partition is first — the
// paper's definition of the reportable set, cross-checked against the
// SCC-based computation on random traces.
func TestQuickUnaffectedIffFirstPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		a, err := Analyze(tr, Options{})
		if err != nil {
			return false
		}
		for ri := range a.Races {
			pi := a.RaceOfPartition(ri)
			if pi < 0 {
				return false
			}
			if a.Unaffected(ri) != a.Partitions[pi].First {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRaceOfPartitionSyncRace: a synchronization race is counted, never
// stored, so it takes no race index; every stored race is a data race
// and RaceOfPartition maps it to its partition.
func TestRaceOfPartitionSyncRace(t *testing.T) {
	tr := mkTrace(2,
		[]ev{syncEv(memmodel.RoleRelease, 0, 0), comp(nil, []int{1})},
		[]ev{syncEv(memmodel.RoleSyncOther, 0, 1), comp([]int{1}, nil)},
	)
	a := analyze(t, tr, Options{})
	if a.SyncRaces != 1 {
		t.Fatalf("sync races = %d, want 1", a.SyncRaces)
	}
	if len(a.Races) != 1 || a.Races[0].A != 1 || a.Races[0].B != 3 {
		t.Fatalf("races = %+v, want the one data race on location 1", a.Races)
	}
	if got := a.RaceOfPartition(0); got != 0 {
		t.Fatalf("data race partition = %d, want 0", got)
	}
}
