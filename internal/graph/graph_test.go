package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// line returns the path graph 0→1→…→n-1.
func line(n int) *Digraph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycle returns the cycle graph 0→1→…→n-1→0.
func cycle(n int) *Digraph {
	g := line(n)
	g.AddEdge(n-1, 0)
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("N,M = %d,%d; want 3,0", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel edge allowed
	g.AddEdgeUnique(0, 1)
	g.AddEdgeUnique(0, 2)
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (unique suppressed one duplicate)", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if len(g.Succ(0)) != 3 {
		t.Fatalf("Succ(0) = %v", g.Succ(0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestCloneIndependent(t *testing.T) {
	g := line(3)
	c := g.Clone()
	c.AddEdge(2, 0)
	if g.HasEdge(2, 0) {
		t.Fatal("Clone shares adjacency storage")
	}
	if g.M() != 2 || c.M() != 3 {
		t.Fatalf("edge counts g=%d c=%d", g.M(), c.M())
	}
}

func TestReverse(t *testing.T) {
	g := line(3)
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("Reverse wrong")
	}
}

func TestSCCLine(t *testing.T) {
	scc := StronglyConnected(line(4))
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
	scc := StronglyConnected(cycle(5))
	if scc.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", scc.NumComponents())
	}
	for u := 0; u < 5; u++ {
		if !scc.SameComponent(0, u) {
			t.Fatalf("nodes 0 and %d not in same component", u)
		}
	}
	if len(scc.Members(0)) != 5 {
		t.Fatalf("Members(0) = %v", scc.Members(0))
	}
}

func TestSCCTwoCyclesBridge(t *testing.T) {
	// 0↔1 → 2↔3, plus isolated 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	scc := StronglyConnected(g)
	if scc.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", scc.NumComponents())
	}
	if !scc.SameComponent(0, 1) || !scc.SameComponent(2, 3) || scc.SameComponent(1, 2) || scc.SameComponent(4, 0) {
		t.Fatalf("component assignment wrong: %v", scc.Comp)
	}
	// Reverse topological numbering: {2,3} must be numbered before {0,1}.
	if scc.Comp[2] >= scc.Comp[0] {
		t.Fatalf("condensation numbering not reverse-topological: %v", scc.Comp)
	}
}

func TestCondensation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate cross edge must collapse
	g.AddEdge(2, 3)
	scc := StronglyConnected(g)
	dag := Condensation(g, scc)
	if dag.N() != 3 {
		t.Fatalf("condensation nodes = %d, want 3", dag.N())
	}
	if dag.M() != 2 {
		t.Fatalf("condensation edges = %d, want 2 (duplicates collapsed)", dag.M())
	}
	if !IsAcyclic(dag) {
		t.Fatal("condensation has a cycle")
	}
}

func TestReachabilityLine(t *testing.T) {
	r := NewReachability(line(4))
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			want := u <= v
			if got := r.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if r.ReachesProper(2, 2) {
		t.Fatal("ReachesProper(2,2) on a line should be false")
	}
	if !r.Ordered(0, 3) || !r.Ordered(3, 0) {
		t.Fatal("Ordered symmetric check failed")
	}
}

func TestReachabilityDiamondUnordered(t *testing.T) {
	// 0→1, 0→2, 1→3, 2→3: 1 and 2 are unordered (a "race" shape).
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	r := NewReachability(g)
	if r.Ordered(1, 2) {
		t.Fatal("diamond arms reported ordered")
	}
	if !r.Reaches(0, 3) {
		t.Fatal("0 should reach 3")
	}
}

func TestReachabilityWithCycle(t *testing.T) {
	// 0→1→2→1 (cycle {1,2}), 2→3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	r := NewReachability(g)
	if !r.Reaches(1, 1) || !r.Reaches(2, 1) || !r.Reaches(1, 3) {
		t.Fatal("cycle reachability wrong")
	}
	if !r.ReachesProper(1, 1) {
		t.Fatal("node on cycle should properly reach itself")
	}
	if r.ReachesProper(0, 0) {
		t.Fatal("node off cycle should not properly reach itself")
	}
	if r.Reaches(3, 0) {
		t.Fatal("3 should not reach 0")
	}
}

func TestComponentReaches(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // comp A
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2) // comp B
	r := NewReachability(g)
	scc := r.SCC()
	ca, cb := scc.Comp[0], scc.Comp[2]
	if !r.ComponentReaches(ca, cb) {
		t.Fatal("component A should reach component B")
	}
	if r.ComponentReaches(cb, ca) {
		t.Fatal("component B should not reach component A")
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	order, err := TopologicalOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 5; u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				t.Fatalf("topological order violates edge %d→%d: %v", u, v, order)
			}
		}
	}
}

func TestTopologicalOrderCycleError(t *testing.T) {
	if _, err := TopologicalOrder(cycle(3)); err == nil {
		t.Fatal("cycle not reported")
	}
	if IsAcyclic(cycle(3)) {
		t.Fatal("IsAcyclic(cycle) = true")
	}
	if !IsAcyclic(line(3)) {
		t.Fatal("IsAcyclic(line) = false")
	}
}

// randomGraph builds a digraph with n nodes, edge probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// bruteReach computes reachability by DFS for cross-checking.
func bruteReach(g *Digraph, u int) map[int]bool {
	seen := map[int]bool{u: true}
	stack := []int{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Property: fast reachability matches brute-force DFS on random graphs.
func TestQuickReachabilityMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.12)
		r := NewReachability(g)
		for u := 0; u < n; u++ {
			reach := bruteReach(g, u)
			for v := 0; v < n; v++ {
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

// Property: SCC partition is consistent with mutual reachability.
func TestQuickSCCMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.15)
		scc := StronglyConnected(g)
		for u := 0; u < n; u++ {
			ru := bruteReach(g, u)
			for v := 0; v < n; v++ {
				mutual := ru[v] && bruteReach(g, v)[u]
				if scc.SameComponent(u, v) != mutual {
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

// Property: every SCC numbering is reverse-topological over the condensation.
func TestQuickSCCNumberingReverseTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.15)
		scc := StronglyConnected(g)
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if scc.Comp[u] != scc.Comp[v] && scc.Comp[u] < scc.Comp[v] {
					return false // cross edge must go to a lower id
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
	// A 200k-node path would overflow a recursive Tarjan; the iterative one
	// must handle it.
	const n = 200_000
	g := line(n)
	scc := StronglyConnected(g)
	if scc.NumComponents() != n {
		t.Fatalf("components = %d, want %d", scc.NumComponents(), n)
	}
}

func BenchmarkSCCRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StronglyConnected(g)
	}
}

func BenchmarkReachabilityBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 1000, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewReachability(g)
	}
}
