package core

// This file exposes the paper's Definition 3.3 — the "affects" relation
// between races — directly. The partitioning in core.go already uses it
// implicitly through the augmented graph; these helpers let callers (and
// tests) query the relation itself and classify races the way §5 does
// (first-partition races vs downstream artifacts).

// Affects reports whether race ri affects race rj (Definition 3.3):
// ⟨x,y⟩ A ⟨x′,y′⟩ iff some event of ri reaches some event of rj in the
// augmented graph G′. A race trivially affects itself (its events are
// mutually reachable through its own doubly-directed edge).
func (a *Analysis) Affects(ri, rj int) bool {
	x, y := a.Races[ri], a.Races[rj]
	from := [2]EventID{x.A, x.B}
	to := [2]EventID{y.A, y.B}
	// hb1 ⊆ G′, so the timestamp layer's O(1) epoch compares get first
	// shot at every pair before any condensation DFS: an hb1-ordered pair
	// anywhere settles the whole relation.
	for _, u := range from {
		for _, v := range to {
			if a.HBTime.Reaches(int(u), int(v)) {
				vcFastpathHit()
				return true
			}
		}
	}
	for _, u := range from {
		for _, v := range to {
			if a.augCond.Reaches(int(u), int(v)) {
				return true
			}
		}
	}
	return false
}

// AffectedBy returns the indices of data races that affect race ri,
// excluding races in ri's own partition (mutual affection within a
// strongly connected component is what makes a partition, not an
// ordering).
func (a *Analysis) AffectedBy(ri int) []int {
	scc := a.AugSCC
	comp := scc.Comp[int(a.Races[ri].A)]
	var out []int
	for rj := range a.Races {
		if rj == ri {
			continue
		}
		if scc.Comp[int(a.Races[rj].A)] == comp {
			continue
		}
		if a.Affects(rj, ri) {
			out = append(out, rj)
		}
	}
	return out
}

// Unaffected reports whether the data race ri is affected by no data race
// outside its own partition — the paper's "first data races (those not
// affected by others)". Every race of a first partition is unaffected,
// and vice versa.
func (a *Analysis) Unaffected(ri int) bool {
	return len(a.AffectedBy(ri)) == 0
}

// RaceOfPartition returns the index of the partition containing data race
// ri. Every stored race is a data race, so every race has one.
func (a *Analysis) RaceOfPartition(ri int) int {
	comp := a.AugSCC.Comp[int(a.Races[ri].A)]
	for pi := range a.Partitions {
		if a.Partitions[pi].Component == comp {
			return pi
		}
	}
	return -1
}
