package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomPartners draws a partner table for s — the shape of core's G′
// race partners: each node gets, with probability p per other stream, a
// random node of that stream — and returns s ⊕ partners as an explicit
// Digraph: g (s built explicitly, see randStreams) with each node's
// partners appended in stream order, the order the implicit adjacency
// visits them.
func randomPartners(rng *rand.Rand, s *Streams, g *Digraph, base []int, p float64) ([]int32, *Digraph) {
	n, w := s.N(), s.Width()
	partners := make([]int32, n*w)
	union := g.Clone()
	for u := 0; u < n; u++ {
		for c := 0; c < w; c++ {
			partners[u*w+c] = -1
			end := n
			if c+1 < w {
				end = base[c+1]
			}
			if c == s.Stream(u) || end == base[c] || rng.Float64() >= p {
				continue
			}
			v := base[c] + rng.Intn(end-base[c])
			partners[u*w+c] = int32(v)
			union.AddEdge(u, v)
		}
	}
	return partners, union
}

// Tarjan over a Streams graph plus a partner table must number the
// components exactly as Tarjan over the materialized union graph does,
// when the union lists each node's successors in the implicit order —
// and that numbering is what keeps G′'s component ids stable. Checked
// with and without a reused Scratch.
func TestStronglyConnectedOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		s, g, base := randStreams(rng, 1+rng.Intn(5), 7, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, g, base, rng.Float64()*0.3)
		want := StronglyConnected(union)
		got := s.SCC(partners, &sc)
		if !reflect.DeepEqual(got.Comp, want.Comp) || got.MaxSize() != want.MaxSize() {
			t.Fatalf("trial %d: implicit SCC differs from explicit:\ngot  %v\nwant %v", trial, got.Comp, want.Comp)
		}
		if hb := s.SCC(nil, nil); !reflect.DeepEqual(hb.Comp, StronglyConnected(g).Comp) {
			t.Fatalf("trial %d: hb-only SCC differs from explicit", trial)
		}
		for c := 0; c < got.NumComponents(); c++ {
			if !reflect.DeepEqual(got.Members(c), want.Members(c)) {
				t.Fatalf("trial %d: component %d members %v, want %v", trial, c, got.Members(c), want.Members(c))
			}
			for _, v := range got.Members(c) {
				if got.Comp[v] != c {
					t.Fatalf("trial %d: member %d of comp %d has Comp %d", trial, v, c, got.Comp[v])
				}
			}
		}
	}
}

// The condensation of a Streams graph plus partners, wrapped in
// CondReach, must answer exactly the reachability queries of the
// materialized union graph, node-level and component-level.
func TestCondReachMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var sc Scratch
	for trial := 0; trial < 120; trial++ {
		s, g, base := randStreams(rng, 1+rng.Intn(5), 6, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, g, base, rng.Float64()*0.2)

		scc := s.SCC(partners, &sc)
		dag := s.Condensation(partners, scc, &sc)
		cr := NewCondReach(dag, scc)
		ref := NewReachability(union)

		n := s.N()
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

// The condensation of a Streams graph plus partners must be acyclic and
// must carry exactly the cross-component edges of the union graph,
// deduplicated.
func TestCondensationOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		s, g, base := randStreams(rng, 1+rng.Intn(5), 6, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, g, base, rng.Float64()*0.2)

		scc := s.SCC(partners, nil)
		dag := s.Condensation(partners, scc, nil)
		if !IsAcyclic(dag) {
			t.Fatalf("trial %d: condensation has a cycle", trial)
		}
		want := map[[2]int]bool{}
		for u := 0; u < s.N(); u++ {
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

// idxThreshold is a hub out-degree the edge-semantics tests below
// cross, so a per-node successor index kicking in at that degree would
// have to keep HasEdge and AddEdgeUnique exactly as the plain scan has
// them.
const idxThreshold = 16

// AddEdgeUnique and HasEdge must stay correct on high-degree nodes,
// including plain AddEdge calls interleaved after many unique inserts.
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

// Differential check of HasEdge and AddEdgeUnique against a model map on
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
