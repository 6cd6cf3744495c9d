package graph

import (
	"math/rand"
	"slices"
	"testing"

	"weakrace/internal/oracle"
)

// randStreams draws a Streams graph of the detector's hb1 shape: width
// streams of 0..maxLen nodes chained in program order, each node with a
// cross predecessor — any other node, backward included — with
// probability pRel. It returns the same graph as plain adjacency lists
// for the oracle, built independently of Streams in the stream-major
// scan order (u→u+1 on reaching u, rel[v]→v on reaching v) that fixes
// Tarjan's numbering, and the stream starts. Cross edges may close cycles — the
// weak-execution case (§3.1) the per-component fallback exists for.
func randStreams(rng *rand.Rand, width, maxLen int, pRel float64) (s *Streams, adj [][]int, base []int) {
	base = make([]int, width)
	n := 0
	for p := range base {
		base[p] = n
		n += rng.Intn(maxLen + 1)
	}
	startsStream := make([]bool, n+1)
	startsStream[n] = true
	for _, b := range base {
		if b < n {
			startsStream[b] = true
		}
	}
	rel := make([]int32, n)
	for u := range rel {
		rel[u] = -1
		if v := rng.Intn(n); v != u && rng.Float64() < pRel {
			rel[u] = int32(v)
		}
	}
	adj = make([][]int, n)
	for u := 0; u < n; u++ {
		if !startsStream[u+1] {
			adj[u] = append(adj[u], u+1)
		}
		if rel[u] >= 0 {
			adj[rel[u]] = append(adj[rel[u]], u)
		}
	}
	s = new(Streams)
	s.Reset(base, rel)
	return s, adj, base
}

// reachesProper answers Timestamps.ReachesProper by the oracle closure:
// a non-empty path from u to v is an edge out of u, then a path to v.
func reachesProper(r *oracle.Closure, adj [][]int, u, v int) bool {
	for _, w := range adj[u] {
		if r.Reaches(w, v) {
			return true
		}
	}
	return false
}

// The timestamp layer must answer every reachability query exactly like
// the bitset closure, on acyclic and cyclic stream graphs alike.
func TestQuickTimestampsMatchReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		s, adj, _ := randStreams(rng, 1+rng.Intn(5), 8, rng.Float64()*0.4)
		ts := NewTimestamps(s, nil)
		r := oracle.NewClosure(adj)
		n := len(adj)
		// The merge falls back to per-component rows exactly on a cycle.
		components := slices.Max(append(oracle.Tarjan(adj), -1)) + 1
		if cyclic := components < n; cyclic != (ts.NumComponents() < n) {
			t.Fatalf("trial %d: cyclic %v, but %d clock rows for %d nodes", trial, cyclic, ts.NumComponents(), n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := ts.Reaches(u, v), r.Reaches(u, v); got != want {
					t.Fatalf("trial %d: Reaches(%d,%d) = %v, closure says %v", trial, u, v, got, want)
				}
				if got, want := ts.ReachesProper(u, v), reachesProper(r, adj, u, v); got != want {
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
		s, adj, base := randStreams(rng, width, 8, rng.Float64()*0.4)
		ts := NewTimestamps(s, nil)
		r := oracle.NewClosure(adj)
		n := len(adj)
		// node[p][i]: the node of stream p at position i — ids are
		// assigned stream-major.
		node := make([][]int, width)
		for p := range node {
			end := n
			if p+1 < width {
				end = base[p+1]
			}
			for u := base[p]; u < end; u++ {
				node[p] = append(node[p], u)
			}
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
	s, adj, _ := randStreams(rng, 4, 10, 0.3)
	ts := NewTimestamps(s, nil)
	r := oracle.NewClosure(adj)
	for u := range adj {
		for v := range adj {
			if u == v {
				continue
			}
			if got, want := ts.EpochOf(u).Covered(ts.VCOf(v)), r.Reaches(u, v); got != want {
				t.Fatalf("EpochOf(%d).Covered(VCOf(%d)) = %v, closure says %v", u, v, got, want)
			}
		}
	}
}

// Stream starts that do not fit the node count are rejected.
func TestTimestampsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched stream table")
		}
	}()
	new(Streams).Reset([]int{0, 3}, []int32{-1, -1})
}
