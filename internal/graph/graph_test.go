package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weakrace/internal/oracle"
)

// streamsOf returns the Streams graph of n nodes in streams starting at
// base, with one cross edge from→to per pair in cross.
func streamsOf(n int, base []int, cross ...[2]int32) *Streams {
	rel := make([]int32, n)
	for i := range rel {
		rel[i] = -1
	}
	for _, e := range cross {
		rel[e[1]] = e[0]
	}
	s := new(Streams)
	s.Reset(base, rel)
	return s
}

// twoCycles is 0↔1 → 2↔3 plus an isolated 4: streams {0,1}, {2,3}, {4}
// with cross edges 1→0, 3→2 and the bridge 1→3.
func twoCycles() *Streams {
	return streamsOf(5, []int{0, 2, 4}, [2]int32{1, 0}, [2]int32{3, 2}, [2]int32{1, 3})
}

func TestBasicAccessors(t *testing.T) {
	s := twoCycles()
	if s.N() != 5 || s.M() != 5 || s.Width() != 3 {
		t.Fatalf("N,M,Width = %d,%d,%d; want 5,5,3", s.N(), s.M(), s.Width())
	}
	for u, want := range []int{0, 0, 1, 1, 2} {
		if s.Stream(u) != want {
			t.Fatalf("Stream(%d) = %d, want %d", u, s.Stream(u), want)
		}
	}
	// Cross targets below u, then u+1, then cross targets above u.
	if got := s.Succ(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Succ(1) = %v, want [0 3]", got)
	}
}

// A cross predecessor outside the node range is rejected.
func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an out-of-range cross predecessor")
		}
	}()
	new(Streams).Reset([]int{0}, []int32{-1, 2})
}

func TestSCCLine(t *testing.T) {
	scc := streamsOf(4, []int{0}).SCC(nil, nil)
	if scc.NumComponents() != 4 {
		t.Fatalf("components = %d, want 4", scc.NumComponents())
	}
	// Tarjan numbering is reverse topological: node 3 gets component 0.
	for i := 0; i < 4; i++ {
		if scc.Comp[i] != 3-i {
			t.Fatalf("Comp[%d] = %d, want %d", i, scc.Comp[i], 3-i)
		}
	}
}

func TestSCCCycle(t *testing.T) {
	scc := streamsOf(5, []int{0}, [2]int32{4, 0}).SCC(nil, nil)
	if scc.NumComponents() != 1 || scc.MaxSize() != 5 {
		t.Fatalf("components = %d of max size %d, want 1 of 5", scc.NumComponents(), scc.MaxSize())
	}
	if len(scc.Members(0)) != 5 {
		t.Fatalf("Members(0) = %v", scc.Members(0))
	}
}

func TestSCCTwoCyclesBridge(t *testing.T) {
	scc := twoCycles().SCC(nil, nil)
	if scc.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", scc.NumComponents())
	}
	c := scc.Comp
	if c[0] != c[1] || c[2] != c[3] || c[1] == c[2] || c[4] == c[0] {
		t.Fatalf("component assignment wrong: %v", c)
	}
	// Reverse topological numbering: {2,3} must be numbered before {0,1}.
	if c[2] >= c[0] {
		t.Fatalf("condensation numbering not reverse-topological: %v", c)
	}
}

// A partner duplicating a cross edge between the same two components
// must collapse into one condensation edge.
func TestCondensation(t *testing.T) {
	s := streamsOf(4, []int{0, 2}, [2]int32{1, 0}, [2]int32{1, 2})
	partners := []int32{-1, -1, -1, 2, -1, -1, -1, -1} // 1→2 again
	scc := s.SCC(partners, nil)
	cr := NewCondReach(s, partners, scc, nil)
	if scc.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", scc.NumComponents())
	}
	if len(cr.succ) != 2 {
		t.Fatalf("condensation edges = %v, want 2 (duplicates collapsed)", cr.succ)
	}
}

// reachers returns the two production answers to "does u reach v" over
// s: vector-clock timestamps and the condensation's CondReach.
func reachers(s *Streams) map[string]func(u, v int) bool {
	cr := NewCondReach(s, nil, s.SCC(nil, nil), nil)
	return map[string]func(u, v int) bool{"timestamps": NewTimestamps(s, nil).Reaches, "condreach": cr.Reaches}
}

func TestReachabilityLine(t *testing.T) {
	for name, reaches := range reachers(streamsOf(4, []int{0})) {
		for u := 0; u < 4; u++ {
			for v := 0; v < 4; v++ {
				if got, want := reaches(u, v), u <= v; got != want {
					t.Fatalf("%s: Reaches(%d,%d) = %v, want %v", name, u, v, got, want)
				}
			}
		}
	}
}

func TestReachabilityDiamondUnordered(t *testing.T) {
	// 0→1, 0→2, 1→3, 2→3: 1 and 2 are unordered (a "race" shape).
	s := streamsOf(4, []int{0, 2}, [2]int32{0, 2}, [2]int32{1, 3})
	for name, reaches := range reachers(s) {
		if reaches(1, 2) || reaches(2, 1) {
			t.Fatalf("%s: diamond arms reported ordered", name)
		}
		if !reaches(0, 3) {
			t.Fatalf("%s: 0 should reach 3", name)
		}
	}
}

func TestReachabilityWithCycle(t *testing.T) {
	// 0→1→2→1 (cycle {1,2}), 2→3.
	s := streamsOf(4, []int{0}, [2]int32{2, 1})
	for name, reaches := range reachers(s) {
		if !reaches(1, 1) || !reaches(2, 1) || !reaches(1, 3) {
			t.Fatalf("%s: cycle reachability wrong", name)
		}
		if reaches(3, 0) {
			t.Fatalf("%s: 3 should not reach 0", name)
		}
	}
	ts := NewTimestamps(s, nil)
	if !ts.ReachesProper(1, 1) || ts.ReachesProper(0, 0) {
		t.Fatal("only a node on the cycle properly reaches itself")
	}
}

func TestComponentReaches(t *testing.T) {
	s := twoCycles()
	scc := s.SCC(nil, nil)
	r := NewCondReach(s, nil, scc, nil)
	ca, cb := scc.Comp[0], scc.Comp[2]
	if !r.ComponentReaches(ca, cb) {
		t.Fatal("component A should reach component B")
	}
	if r.ComponentReaches(cb, ca) {
		t.Fatal("component B should not reach component A")
	}
}

// bruteReach computes reachability by DFS for cross-checking.
func bruteReach(adj [][]int, u int) map[int]bool {
	seen := map[int]bool{u: true}
	stack := []int{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Property: CondReach over hb1 alone (no partner table) matches
// brute-force DFS on random stream graphs.
func TestQuickReachabilityMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, adj, _ := randStreams(rng, 1+rng.Intn(5), 8, 0.3)
		r := NewCondReach(s, nil, s.SCC(nil, nil), nil)
		for u := range adj {
			reach := bruteReach(adj, u)
			for v := range adj {
				if r.Reaches(u, v) != reach[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the SCC partition of a stream graph plus partners is
// consistent with mutual reachability.
func TestQuickSCCMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 6, 0.2)
		partners, union := randomPartners(rng, s, adj, base, 0.15)
		scc := s.SCC(partners, nil)
		r := oracle.NewClosure(union)
		for u := range union {
			for v := range union {
				mutual := r.Reaches(u, v) && r.Reaches(v, u)
				if (scc.Comp[u] == scc.Comp[v]) != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every SCC numbering is reverse-topological over the
// condensation — each edge, partner edges included, stays in its
// component or goes to a lower id.
func TestQuickSCCNumberingReverseTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, adj, base := randStreams(rng, 1+rng.Intn(5), 6, 0.2)
		partners, union := randomPartners(rng, s, adj, base, 0.15)
		scc := s.SCC(partners, nil)
		for u, vs := range union {
			for _, v := range vs {
				if scc.Comp[u] < scc.Comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCDeepRecursionSafe(t *testing.T) {
	// A 200k-event stream would overflow a recursive Tarjan; the
	// iterative one must handle it.
	const n = 200_000
	scc := streamsOf(n, []int{0}).SCC(nil, nil)
	if scc.NumComponents() != n {
		t.Fatalf("components = %d, want %d", scc.NumComponents(), n)
	}
}

func BenchmarkSCCRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s, adj, base := randStreams(rng, 8, 500, 0.05)
	partners, _ := randomPartners(rng, s, adj, base, 0.05)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SCC(partners, &sc)
	}
}
