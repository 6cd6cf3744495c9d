package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"weakrace/internal/oracle"
)

// randomPartners draws a partner table for s — the shape of core's G′
// race partners: each node gets, with probability p per other stream, a
// random node of that stream — and returns s ⊕ partners as adjacency
// lists: adj (s built independently, see randStreams) with each node's
// partners appended in stream order, the order the implicit adjacency
// visits them.
func randomPartners(rng *rand.Rand, s *Streams, adj [][]int, base []int, p float64) ([]int32, [][]int) {
	n, w := s.N(), s.Width()
	partners := make([]int32, n*w)
	union := make([][]int, n)
	for u := 0; u < n; u++ {
		union[u] = append([]int(nil), adj[u]...)
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
			union[u] = append(union[u], v)
		}
	}
	return partners, union
}

// checkComponents requires got to number the components exactly as the
// oracle's recursive Tarjan does over adj, with members and the largest
// size to match.
func checkComponents(t *testing.T, label string, got *SCC, adj [][]int) {
	t.Helper()
	want := oracle.Tarjan(adj)
	if !reflect.DeepEqual(got.Comp, want) {
		t.Fatalf("%s: components differ from the oracle's:\ngot  %v\nwant %v", label, got.Comp, want)
	}
	size := make([]int, len(adj))
	for _, c := range want {
		size[c]++
	}
	seen, maxSize := make([]bool, len(adj)), 0
	for c := 0; c < got.NumComponents(); c++ {
		if len(got.Members(c)) != size[c] {
			t.Fatalf("%s: component %d has members %v, oracle size %d", label, c, got.Members(c), size[c])
		}
		for _, v := range got.Members(c) {
			if got.Comp[v] != c || seen[v] {
				t.Fatalf("%s: member %d of comp %d has Comp %d (listed twice: %v)", label, v, c, got.Comp[v], seen[v])
			}
			seen[v] = true
		}
		maxSize = max(maxSize, size[c])
	}
	if got.MaxSize() != maxSize {
		t.Fatalf("%s: MaxSize %d, oracle %d", label, got.MaxSize(), maxSize)
	}
}

// Tarjan over a Streams graph, alone and plus a partner table, must
// number the components exactly as the oracle's recursive Tarjan over
// the materialized union does, when the union lists each node's
// successors in the implicit order — and that numbering is what keeps
// G′'s component ids stable. Checked with and without a reused Scratch.
func TestStronglyConnectedOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 7, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, adj, base, rng.Float64()*0.3)
		checkComponents(t, fmt.Sprintf("trial %d", trial), s.SCC(partners, &sc, nil), union)
		checkComponents(t, fmt.Sprintf("trial %d, hb only", trial), s.SCC(nil, nil, nil), adj)
	}
}

// CondReach over a Streams graph plus partners must answer exactly the
// reachability queries of the oracle's closure of the union graph,
// node-level and component-level.
func TestCondReachMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var sc Scratch
	for trial := 0; trial < 120; trial++ {
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 6, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, adj, base, rng.Float64()*0.2)

		scc := s.SCC(partners, &sc, nil)
		cr := NewCondReach(s, partners, scc, &sc)
		ref := oracle.NewClosure(union)
		for u := range union {
			for v := range union {
				want := ref.Reaches(u, v)
				if got := cr.Reaches(u, v); got != want {
					t.Fatalf("trial %d: CondReach.Reaches(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
				if got := cr.ComponentReaches(scc.Comp[u], scc.Comp[v]); got != want {
					t.Fatalf("trial %d: ComponentReaches(%d,%d) = %v, want %v",
						trial, scc.Comp[u], scc.Comp[v], got, want)
				}
			}
		}
	}
}

// Concurrent queries against one CondReach must agree with the oracle's
// closure — run under -race this exercises the compare-and-swap row
// publication that keeps PartitionPrecedes safe for concurrent callers.
func TestCondReachConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, adj, base := randStreams(rng, 4, 30, 0.1)
	partners, union := randomPartners(rng, s, adj, base, 0.05)
	n := len(union)
	scc := s.SCC(partners, nil, nil)
	cr := NewCondReach(s, partners, scc, nil)
	ref := oracle.NewClosure(union)
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

// The condensation of a Streams graph plus partners must carry exactly
// the cross-component edges of the union graph, each once, every list
// ascending and every edge to a lower component id (so it is acyclic).
func TestCondensationOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 6, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, adj, base, rng.Float64()*0.2)

		scc := s.SCC(partners, nil, nil)
		cr := NewCondReach(s, partners, scc, nil)
		want := map[[2]int]bool{}
		for u, vs := range union {
			for _, v := range vs {
				if cu, cv := scc.Comp[u], scc.Comp[v]; cu != cv {
					want[[2]int{cu, cv}] = true
				}
			}
		}
		if len(cr.off) != scc.NumComponents()+1 || len(cr.succ) != len(want) {
			t.Fatalf("trial %d: condensation of %d offsets and %d edges; want %d components, %d distinct edges",
				trial, len(cr.off), len(cr.succ), scc.NumComponents(), len(want))
		}
		for cu := 0; cu < scc.NumComponents(); cu++ {
			row := cr.succ[cr.off[cu]:cr.off[cu+1]]
			for i, cv := range row {
				if !want[[2]int{cu, int(cv)}] || int(cv) >= cu || (i > 0 && cv <= row[i-1]) {
					t.Fatalf("trial %d: component %d has successors %v", trial, cu, row)
				}
			}
		}
	}
}
