package core

import (
	"reflect"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/oracle"
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
	rel := func(seq int) ev { return syncEv(memmodel.RoleRelease, L, seq) }
	acq := func(seq, obsIdx int) ev {
		return paired(L, seq, trace.EventRef{CPU: 0, Index: obsIdx}, memmodel.RoleRelease)
	}
	return mkTrace(4,
		[]ev{ // P1: ids 0..4
			comp(nil, []int{x}), rel(0), comp(nil, []int{y}), rel(2), comp(nil, []int{z}),
		},
		[]ev{ // P2: ids 5..9
			comp([]int{x}, nil), acq(1, 1), comp([]int{y}, nil), acq(3, 3), comp([]int{z}, nil),
		},
	)
}

// explicitOrder recomputes a's data races and partition order with
// internal/oracle's G′ oracle alone: every conflicting pair that the
// closure of the explicit hb1 leaves unordered is a race and a
// doubly-directed edge of an explicitly built G′, and partition i
// precedes j iff the closure of that G′ reaches j's events from i's.
func explicitOrder(a *Analysis) (races [][2]EventID, precedes func(i, j int) bool) {
	o := oracle.NewGPrime(a.Trace, a.Options.Pairing)
	for _, r := range o.Races {
		races = append(races, [2]EventID{EventID(r.A), EventID(r.B)})
	}
	return races, func(i, j int) bool {
		return o.Reach.Reaches(int(a.Partitions[i].Events[0]), int(a.Partitions[j].Events[0]))
	}
}

// orderOracles are the ways the tests answer the partition order:
// "implicit" asks the analysis (timestamps and the implicit G′);
// "explicit" asks explicitOrder, after checking that it finds exactly
// the analysis's data races.
var orderOracles = []struct {
	name  string
	order func(t *testing.T, a *Analysis) func(i, j int) bool
}{
	{"implicit", func(t *testing.T, a *Analysis) func(i, j int) bool { return a.PartitionPrecedes }},
	{"explicit", func(t *testing.T, a *Analysis) func(i, j int) bool {
		races, precedes := explicitOrder(a)
		var got [][2]EventID
		for _, r := range a.Races {
			got = append(got, [2]EventID{r.A, r.B})
		}
		if !reflect.DeepEqual(got, races) {
			t.Fatalf("analysis races %v, explicit closure finds %v", got, races)
		}
		return precedes
	}},
}

// TestPartitionOrderingChain pins down the partition order machinery on a
// crafted multi-partition trace, with the order answered by the analysis
// ("implicit") and by explicit closures of hb1 and G′ ("explicit"):
// PartitionPrecedes antisymmetry, FirstPartitions minimality, and the
// expected chain structure.
func TestPartitionOrderingChain(t *testing.T) {
	for _, o := range orderOracles {
		t.Run(o.name, func(t *testing.T) {
			a := analyze(t, chainTrace(), Options{})
			precedes := o.order(t, a)
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
					if got := precedes(i, j); got != (i < j) {
						t.Fatalf("precedes(%d,%d) = %v, want %v", i, j, got, i < j)
					}
					// Antisymmetry: never both directions between distinct
					// partitions (they are distinct SCCs).
					if precedes(i, j) && precedes(j, i) {
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
					if j != i && precedes(j, i) {
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
// order oracles: a racy trace has at least one first partition, and a
// properly-synchronized trace has no data races and no first partitions.
func TestTheorem41BothWays(t *testing.T) {
	const x, L = 0, 1
	clean := mkTrace(2,
		[]ev{comp(nil, []int{x}), syncEv(memmodel.RoleRelease, L, 0)},
		[]ev{
			paired(L, 1, trace.EventRef{CPU: 0, Index: 1}, memmodel.RoleRelease),
			comp([]int{x}, nil),
		},
	)
	firsts := func(a *Analysis, precedes func(i, j int) bool) int {
		n := 0
		for i := range a.Partitions {
			first := true
			for j := range a.Partitions {
				if j != i && precedes(j, i) {
					first = false
				}
			}
			if first {
				n++
			}
		}
		return n
	}
	for _, o := range orderOracles {
		t.Run(o.name, func(t *testing.T) {
			racy := analyze(t, chainTrace(), Options{})
			if n := firsts(racy, o.order(t, racy)); len(racy.Races) == 0 || n == 0 {
				t.Fatalf("racy trace: %d data races, %d first partitions — Theorem 4.1 (⇐) violated",
					len(racy.Races), n)
			}
			cleanA := analyze(t, clean, Options{})
			if n := firsts(cleanA, o.order(t, cleanA)); len(cleanA.Races) != 0 || n != 0 || len(cleanA.FirstPartitions) != 0 {
				t.Fatalf("synchronized trace: %d data races, %d first partitions — Theorem 4.1 (⇒) violated",
					len(cleanA.Races), n)
			}
		})
	}
}
