package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomOverlay draws a sparse extra-adjacency for a graph of n nodes —
// the shape of core's race-partner lists.
func randomOverlay(rng *rand.Rand, n int, p float64) [][]int32 {
	extra := make([][]int32, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				extra[u] = append(extra[u], int32(v))
			}
		}
	}
	return extra
}

// explicitUnion materializes g ⊕ extra the way the pre-overlay code did:
// clone and add each overlay edge.
func explicitUnion(g *Digraph, extra [][]int32) *Digraph {
	u := g.Clone()
	for from, tos := range extra {
		for _, to := range tos {
			u.AddEdgeUnique(from, int(to))
		}
	}
	return u
}

// sameComponents reports whether two SCC decompositions induce the same
// partition of the nodes, ignoring component numbering.
func sameComponents(a, b *SCC) bool {
	if len(a.Comp) != len(b.Comp) || a.NumComponents() != b.NumComponents() {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for v := range a.Comp {
		ca, cb := a.Comp[v], b.Comp[v]
		if m, ok := fwd[ca]; ok && m != cb {
			return false
		}
		if m, ok := rev[cb]; ok && m != ca {
			return false
		}
		fwd[ca] = cb
		rev[cb] = ca
	}
	return true
}

// The overlay Tarjan must produce the same component partition as running
// the classic Tarjan on the materialized union graph, with and without a
// reused Scratch.
func TestStronglyConnectedOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Float64()*0.2)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		want := StronglyConnected(explicitUnion(g, extra))
		got := StronglyConnectedOverlay(g, extra, &s)
		if !sameComponents(got, want) {
			t.Fatalf("trial %d: overlay SCC differs from explicit:\ngot  %+v\nwant %+v", trial, got, want)
		}
		// Members must be consistent with Comp.
		for c, members := range got.Members {
			for _, v := range members {
				if got.Comp[v] != c {
					t.Fatalf("trial %d: member %d of comp %d has Comp %d", trial, v, c, got.Comp[v])
				}
			}
		}
	}
}

// CondensationOverlay ⊕ CondReach must answer exactly the reachability
// queries of the materialized union graph, node-level and
// component-level.
func TestCondReachMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var s Scratch
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Float64()*0.15)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		union := explicitUnion(g, extra)

		scc := StronglyConnectedOverlay(g, extra, &s)
		dag := CondensationOverlay(g, extra, scc, &s)
		cr := NewCondReach(dag, scc)
		ref := NewReachability(union)

		for u := 0; u < n; u++ {
			brute := bruteReach(union, u)
			for v := 0; v < n; v++ {
				if got, want := cr.Reaches(u, v), brute[v]; got != want {
					t.Fatalf("trial %d: CondReach.Reaches(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
				if got, want := cr.ComponentReaches(scc.Comp[u], scc.Comp[v]), ref.Reaches(u, v); got != want {
					t.Fatalf("trial %d: ComponentReaches(%d,%d) = %v, want %v",
						trial, scc.Comp[u], scc.Comp[v], got, want)
				}
			}
		}
	}
}

// Concurrent queries against one CondReach must agree with the eager
// closure — run under -race this exercises the compare-and-swap row
// publication that keeps PartitionPrecedes safe for concurrent callers.
func TestCondReachConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 60
	g := randomGraph(rng, n, 0.08)
	scc := StronglyConnected(g)
	cr := NewCondReach(Condensation(g, scc), scc)
	ref := NewReachability(g)
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the query space from a different offset so
			// row materializations collide.
			for i := 0; i < n*n; i++ {
				q := (i + w*n*n/8) % (n * n)
				u, v := q/n, q%n
				if cr.Reaches(u, v) != ref.Reaches(u, v) {
					select {
					case errc <- fmt.Sprintf("Reaches(%d, %d) mismatch", u, v):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

// The condensation built over the overlay must be acyclic and must carry
// exactly the cross-component edges of the union graph, deduplicated.
func TestCondensationOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Float64()*0.2)
		extra := randomOverlay(rng, n, rng.Float64()*0.1)
		union := explicitUnion(g, extra)

		scc := StronglyConnectedOverlay(g, extra, nil)
		dag := CondensationOverlay(g, extra, scc, nil)
		if !IsAcyclic(dag) {
			t.Fatalf("trial %d: condensation has a cycle", trial)
		}
		want := map[[2]int]bool{}
		for u := 0; u < n; u++ {
			for _, v := range union.Succ(u) {
				if cu, cv := scc.Comp[u], scc.Comp[v]; cu != cv {
					want[[2]int{cu, cv}] = true
				}
			}
		}
		got := map[[2]int]bool{}
		for cu := 0; cu < dag.N(); cu++ {
			for _, cv := range dag.Succ(cu) {
				e := [2]int{cu, cv}
				if got[e] {
					t.Fatalf("trial %d: duplicate condensation edge %v", trial, e)
				}
				got[e] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d condensation edges, want %d", trial, len(got), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("trial %d: condensation missing edge %v", trial, e)
			}
		}
	}
}

// AddEdgeUnique and HasEdge must stay correct across the degree threshold
// where the per-node index kicks in, including plain AddEdge calls
// interleaved after the index is built.
func TestEdgeIndexAcrossThreshold(t *testing.T) {
	g := New(200)
	// Push node 0 well past idxThreshold with unique edges, then re-add
	// every one: duplicates must be rejected before and after the index
	// exists, leaving the edge count unchanged.
	for v := 1; v <= 3*idxThreshold; v++ {
		g.AddEdgeUnique(0, v)
	}
	for v := 1; v <= 3*idxThreshold; v++ {
		g.AddEdgeUnique(0, v)
	}
	if g.M() != 3*idxThreshold {
		t.Fatalf("M() = %d, want %d", g.M(), 3*idxThreshold)
	}
	// AddEdge must keep the index coherent: the new edge is immediately
	// visible to HasEdge, and AddEdgeUnique rejects it afterwards.
	g.AddEdge(0, 150)
	if !g.HasEdge(0, 150) {
		t.Fatal("HasEdge misses an edge added by AddEdge after index build")
	}
	g.AddEdgeUnique(0, 150)
	if g.M() != 3*idxThreshold+1 {
		t.Fatalf("AddEdgeUnique re-inserted an edge added by AddEdge: M() = %d", g.M())
	}
	for v := 1; v <= 3*idxThreshold; v++ {
		if !g.HasEdge(0, v) {
			t.Fatalf("HasEdge(0,%d) = false", v)
		}
	}
	if g.HasEdge(0, 199) {
		t.Fatal("HasEdge reports a nonexistent edge")
	}
	// Low-degree nodes never build an index and stay correct.
	g.AddEdgeUnique(5, 6)
	if !g.HasEdge(5, 6) || g.HasEdge(6, 5) {
		t.Fatal("low-degree HasEdge wrong")
	}
}

// Differential check of the indexed HasEdge path against a model map on
// random interleavings of AddEdge, AddEdgeUnique, and HasEdge.
func TestEdgeIndexRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		model := map[[2]int]bool{}
		for step := 0; step < 500; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				g.AddEdge(u, v)
				model[[2]int{u, v}] = true
			case 1:
				before := g.M()
				g.AddEdgeUnique(u, v)
				inserted := g.M() == before+1
				if inserted == model[[2]int{u, v}] {
					t.Fatalf("trial %d step %d: AddEdgeUnique(%d,%d) disagreement", trial, step, u, v)
				}
				model[[2]int{u, v}] = true
			case 2:
				if g.HasEdge(u, v) != model[[2]int{u, v}] {
					t.Fatalf("trial %d step %d: HasEdge(%d,%d) disagreement", trial, step, u, v)
				}
			}
		}
	}
}
