package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// oracle's recursive Tarjan does over adj, with the largest size to
// match, and returns the oracle's numbering.
func checkComponents(t *testing.T, label string, got *SCC, adj [][]int) []int {
	t.Helper()
	want := oracle.Tarjan(adj)
	size := make([]int, len(adj)+1)
	for v, c := range want {
		if int(got.Comp[v]) != c {
			t.Fatalf("%s: components differ from the oracle's:\ngot  %v\nwant %v", label, got.Comp, want)
		}
		size[c]++
	}
	if got.NumComponents() != slices.Max(append(want, -1))+1 || got.MaxSize() != slices.Max(size) {
		t.Fatalf("%s: %d components of max size %d; oracle sizes %v", label, got.NumComponents(), got.MaxSize(), size)
	}
	return want
}

// condensation returns the condensation an SCC carries, each
// component's successors ascending, in the oracle's form.
func condensation(scc *SCC) [][]int {
	rows := make([][]int, scc.NumComponents())
	for c := range rows {
		for _, d := range scc.Succ(c) {
			rows[c] = append(rows[c], int(d))
		}
		slices.Sort(rows[c])
	}
	return rows
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
		cr := NewCondReach(scc, nil)
		ref := oracle.NewClosure(union)
		for u := range union {
			for v := range union {
				want := ref.Reaches(u, v)
				if got := cr.Reaches(u, v); got != want {
					t.Fatalf("trial %d: CondReach.Reaches(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
				if got := cr.ComponentReaches(int(scc.Comp[u]), int(scc.Comp[v])); got != want {
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
	cr := NewCondReach(scc, nil)
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

// The condensation Tarjan collects on its one pass over a Streams graph,
// alone and plus partners, must carry exactly the cross-component edges
// of the union graph, each once: the successor set the oracle builds
// edge by edge, for every component. Checked on 2,000 graphs, acyclic and
// cyclic, with a reused Scratch.
func TestCondensationOverlayMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc Scratch
	cyclic := 0
	for trial := 0; trial < 1000; trial++ {
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 7, rng.Float64()*0.3)
		partners, union := randomPartners(rng, s, adj, base, rng.Float64()*0.3)
		for _, g := range []struct {
			label    string
			partners []int32
			adj      [][]int
		}{{"with partners", partners, union}, {"hb only", nil, adj}} {
			label := fmt.Sprintf("trial %d, %s", trial, g.label)
			scc := s.SCC(g.partners, &sc, nil)
			want := oracle.Condensation(g.adj, checkComponents(t, label, scc, g.adj))
			if got := condensation(scc); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: condensation\n%v\nwant\n%v", label, got, want)
			}
			if scc.NumComponents() < s.N() {
				cyclic++
			}
		}
	}
	t.Logf("%d of 2000 graphs cyclic", cyclic)
	if cyclic < 500 || cyclic > 1500 {
		t.Fatalf("%d of 2000 graphs cyclic; want both kinds well represented", cyclic)
	}
}
