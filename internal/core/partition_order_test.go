package core

import (
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/trace"
)

// chainTrace builds a trace with three data-race partitions in a strict
// chain. P1 writes x, y, z in segments separated by releases of lock L;
// P2 reads x, y, z in segments separated by acquires pairing with those
// releases. Each read segment sits *before* the acquire that would have
// ordered it, so every location races, and the acquire chain threads the
// partitions into a total order: the x-partition's events reach the
// y-partition's, which reach the z-partition's, but never backwards.
func chainTrace() *trace.Trace {
	const x, y, z, L = 0, 1, 2, 3
	rel := func(seq int) *trace.Event { return syncEv(memmodel.RoleRelease, L, seq) }
	acq := func(seq, obsIdx int) *trace.Event {
		return paired(L, seq, trace.EventRef{CPU: 0, Index: obsIdx}, memmodel.RoleRelease)
	}
	return mkTrace(4,
		[]*trace.Event{ // P1: ids 0..4
			comp(nil, []int{x}), rel(0), comp(nil, []int{y}), rel(2), comp(nil, []int{z}),
		},
		[]*trace.Event{ // P2: ids 5..9
			comp([]int{x}, nil), acq(1, 1), comp([]int{y}, nil), acq(3, 3), comp([]int{z}, nil),
		},
	)
}

// TestPartitionOrderingChain pins down the partition order machinery on a
// crafted multi-partition trace, with hb1 answered by the timestamps
// ("implicit", the default) and by the explicit closure ("explicit"):
// PartitionPrecedes antisymmetry, FirstPartitions minimality, and the
// expected chain structure.
func TestPartitionOrderingChain(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		name := "implicit"
		if explicit {
			name = "explicit"
		}
		t.Run(name, func(t *testing.T) {
			a := analyze(t, chainTrace(), Options{ExplicitClosure: explicit})
			if len(a.Races) != 3 {
				t.Fatalf("want 3 data races, got %d: %+v", len(a.Races), a.Races)
			}
			if len(a.Partitions) != 3 {
				t.Fatalf("want 3 partitions, got %d: %+v", len(a.Partitions), a.Partitions)
			}
			// Partitions sort by smallest event, so index i is the race on
			// location i, with events {P1 segment i, P2 segment i}.
			wantEvents := [][]EventID{{0, 5}, {2, 7}, {4, 9}}
			for i, p := range a.Partitions {
				if len(p.Events) != 2 || p.Events[0] != wantEvents[i][0] || p.Events[1] != wantEvents[i][1] {
					t.Fatalf("partition %d events = %v, want %v", i, p.Events, wantEvents[i])
				}
			}
			// The chain: i precedes j exactly when i < j.
			for i := range a.Partitions {
				for j := range a.Partitions {
					if i == j {
						continue
					}
					if got := a.PartitionPrecedes(i, j); got != (i < j) {
						t.Fatalf("PartitionPrecedes(%d,%d) = %v, want %v", i, j, got, i < j)
					}
					// Antisymmetry: never both directions between distinct
					// partitions (they are distinct SCCs).
					if a.PartitionPrecedes(i, j) && a.PartitionPrecedes(j, i) {
						t.Fatalf("PartitionPrecedes not antisymmetric on (%d,%d)", i, j)
					}
				}
			}
			// FirstPartitions minimality: a partition is listed iff no other
			// partition precedes it.
			isFirst := map[int]bool{}
			for _, pi := range a.FirstPartitions {
				isFirst[pi] = true
			}
			for i := range a.Partitions {
				preceded := false
				for j := range a.Partitions {
					if j != i && a.PartitionPrecedes(j, i) {
						preceded = true
					}
				}
				if isFirst[i] == preceded {
					t.Fatalf("partition %d: first=%v but preceded=%v", i, isFirst[i], preceded)
				}
				if a.Partitions[i].First != isFirst[i] {
					t.Fatalf("partition %d: First flag %v disagrees with FirstPartitions", i, a.Partitions[i].First)
				}
			}
			if len(a.FirstPartitions) != 1 || a.FirstPartitions[0] != 0 {
				t.Fatalf("want first partitions [0], got %v", a.FirstPartitions)
			}
		})
	}
}

// TestTheorem41BothWays checks Theorem 4.1 in both directions under both
// hb1 oracles: a racy trace has at least one first partition, and a
// properly-synchronized trace has no data races and no first partitions.
func TestTheorem41BothWays(t *testing.T) {
	const x, L = 0, 1
	clean := mkTrace(2,
		[]*trace.Event{comp(nil, []int{x}), syncEv(memmodel.RoleRelease, L, 0)},
		[]*trace.Event{
			paired(L, 1, trace.EventRef{CPU: 0, Index: 1}, memmodel.RoleRelease),
			comp([]int{x}, nil),
		},
	)
	for _, explicit := range []bool{false, true} {
		name := "implicit"
		if explicit {
			name = "explicit"
		}
		t.Run(name, func(t *testing.T) {
			racy := analyze(t, chainTrace(), Options{ExplicitClosure: explicit})
			if len(racy.Races) == 0 || len(racy.FirstPartitions) == 0 {
				t.Fatalf("racy trace: %d data races, %d first partitions — Theorem 4.1 (⇐) violated",
					len(racy.Races), len(racy.FirstPartitions))
			}
			cleanA := analyze(t, clean, Options{ExplicitClosure: explicit})
			if len(cleanA.Races) != 0 || len(cleanA.FirstPartitions) != 0 {
				t.Fatalf("synchronized trace: %d data races, %d first partitions — Theorem 4.1 (⇒) violated",
					len(cleanA.Races), len(cleanA.FirstPartitions))
			}
		})
	}
}
