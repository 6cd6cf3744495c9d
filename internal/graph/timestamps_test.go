package graph

import (
	"math/rand"
	"testing"
)

// randStreamGraph builds a stream-structured digraph of the detector's
// hb1 shape: width streams of random lengths chained by po edges, plus
// cross random cross-edges (the so1 analogue). Cross edges may point
// backward, so the graph can contain cycles — exactly the weak-execution
// case (§3.1) the SCC layer of Timestamps exists for.
func randStreamGraph(rng *rand.Rand, width, maxLen, cross int) (g *Digraph, stream, pos []int32) {
	n := 0
	lens := make([]int, width)
	for p := range lens {
		lens[p] = 1 + rng.Intn(maxLen)
		n += lens[p]
	}
	g = New(n)
	stream = make([]int32, n)
	pos = make([]int32, n)
	id := 0
	for p := 0; p < width; p++ {
		for i := 0; i < lens[p]; i++ {
			stream[id] = int32(p)
			pos[id] = int32(i)
			if i > 0 {
				g.AddEdge(id-1, id)
			}
			id++
		}
	}
	for i := 0; i < cross; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdgeUnique(u, v)
		}
	}
	return g, stream, pos
}

// The timestamp layer must answer every reachability query exactly like
// the bitset closure, on acyclic and cyclic stream graphs alike.
func TestQuickTimestampsMatchReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		width := 1 + rng.Intn(5)
		g, stream, pos := randStreamGraph(rng, width, 8, rng.Intn(25))
		ts := NewTimestamps(g, stream, pos, width, nil)
		r := NewReachability(g)
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := ts.Reaches(u, v), r.Reaches(u, v); got != want {
					t.Fatalf("trial %d: Reaches(%d,%d) = %v, closure says %v", trial, u, v, got, want)
				}
				if got, want := ts.ReachesProper(u, v), r.ReachesProper(u, v); got != want {
					t.Fatalf("trial %d: ReachesProper(%d,%d) = %v, closure says %v", trial, u, v, got, want)
				}
				if got, want := ts.Ordered(u, v), r.Ordered(u, v); got != want {
					t.Fatalf("trial %d: Ordered(%d,%d) = %v, closure says %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// Window must bracket every (event, stream) pair exactly: the events of
// the stream reaching x form a prefix of length predCount, the events
// reached from x a suffix starting at succPos — verified event by event
// against the closure.
func TestQuickTimestampsWindowMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 150; trial++ {
		width := 1 + rng.Intn(5)
		g, stream, pos := randStreamGraph(rng, width, 8, rng.Intn(25))
		ts := NewTimestamps(g, stream, pos, width, nil)
		r := NewReachability(g)
		n := g.N()
		// node id of stream p, position i — ids are assigned stream-major.
		node := make([][]int, width)
		for u := 0; u < n; u++ {
			node[stream[u]] = append(node[stream[u]], 0)
		}
		for u := 0; u < n; u++ {
			node[stream[u]][pos[u]] = u
		}
		for u := 0; u < n; u++ {
			for p := 0; p < width; p++ {
				predCount, succPos := ts.Window(u, p)
				for i, v := range node[p] {
					if got, want := i < int(predCount), r.Reaches(v, u); got != want {
						t.Fatalf("trial %d: Window(%d,%d) predCount=%d wrong at pos %d (closure %v)",
							trial, u, p, predCount, i, want)
					}
					if got, want := i >= int(succPos), r.Reaches(u, v); got != want {
						t.Fatalf("trial %d: Window(%d,%d) succPos=%d wrong at pos %d (closure %v)",
							trial, u, p, succPos, i, want)
					}
				}
			}
		}
	}
}

// Epochs and clocks must be mutually consistent: v's clock covers u's
// epoch exactly when u reaches v.
func TestTimestampsEpochClockConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g, stream, pos := randStreamGraph(rng, 4, 10, 20)
	ts := NewTimestamps(g, stream, pos, 4, nil)
	r := NewReachability(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if got, want := ts.EpochOf(u).Covered(ts.VCOf(v)), r.Reaches(u, v); got != want {
				t.Fatalf("EpochOf(%d).Covered(VCOf(%d)) = %v, closure says %v", u, v, got, want)
			}
		}
	}
}

func TestTimestampsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched stream table")
		}
	}()
	NewTimestamps(New(3), []int32{0, 0}, []int32{0, 1}, 1, nil)
}

// NewWithDegrees must behave exactly like New + AddEdge, including when a
// node receives more edges than its declared degree (the list falls off
// the slab and grows normally).
func TestNewWithDegrees(t *testing.T) {
	g := NewWithDegrees([]int32{2, 0, 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0) // exceeds deg[1] = 0
	g.AddEdge(1, 2) // keeps exceeding
	want := [][]int{{1, 2}, {0, 2}, {0}}
	for u, w := range want {
		got := g.Succ(u)
		if len(got) != len(w) {
			t.Fatalf("Succ(%d) = %v, want %v", u, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("Succ(%d) = %v, want %v", u, got, w)
			}
		}
	}
	if g.M() != 5 {
		t.Fatalf("M() = %d, want 5", g.M())
	}
}

func TestQuickNewWithDegreesMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		type edge struct{ u, v int }
		var edges []edge
		deg := make([]int32, n)
		for i := rng.Intn(40); i > 0; i-- {
			e := edge{rng.Intn(n), rng.Intn(n)}
			edges = append(edges, e)
			deg[e.u]++
		}
		// Undercount some degrees so the overflow path is exercised too.
		for i := range deg {
			if deg[i] > 0 && rng.Intn(4) == 0 {
				deg[i]--
			}
		}
		a, b := New(n), NewWithDegrees(deg)
		for _, e := range edges {
			a.AddEdge(e.u, e.v)
			b.AddEdge(e.u, e.v)
		}
		for u := 0; u < n; u++ {
			sa, sb := a.Succ(u), b.Succ(u)
			if len(sa) != len(sb) {
				t.Fatalf("trial %d: Succ(%d) lengths differ: %v vs %v", trial, u, sa, sb)
			}
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("trial %d: Succ(%d) = %v vs %v", trial, u, sa, sb)
				}
			}
		}
	}
}
