package graph

import "fmt"

// Streams is a stream-structured digraph held flat: the shape of the
// detector's happens-before-1 graph, po ∪ so1 (paper Definitions
// 2.2–2.3). Nodes are numbered stream-major — stream 0's nodes in order,
// then stream 1's, and so on — and each stream is chained by
// program-order edges u→u+1. Every node has at most one cross edge into
// it, from rel[u] (−1 when none): an acquire pairs with one release.
//
// The successors of all nodes sit in one compressed-sparse-row array,
// each node's list in the order a stream-major scan produces when it
// appends u→u+1 on reaching u and rel[v]→v on reaching v: cross targets
// below u ascending, then u+1, then cross targets above u ascending.
// Tarjan numbers components in the order it meets successors, so this
// order fixes the component ids of every SCC computed over the graph.
//
// A Streams is reused across Resets; it is not safe for concurrent use.
type Streams struct {
	// stream and pos map a node to its stream and its position there.
	// They come from Reset's Slabs: Timestamps keeps them.
	stream, pos []int32
	start       []int32 // stream p holds nodes start[p] .. start[p+1]-1
	rel         []int32 // the caller's cross-predecessor table, not copied
	off, succ   []int32 // successors of u: succ[off[u]:off[u+1]]
}

// Reset rebuilds s for len(rel) nodes in len(base) streams, stream p
// starting at node base[p] (base[0] = 0, non-decreasing), with cross
// predecessors rel. s aliases rel until the next Reset, so the caller
// must not modify it meanwhile. The successor lists are carved out of
// buffers kept from the previous Reset: a counting pass sizes them, a
// second pass fills them in scan order. The stream and position tables,
// which a Timestamps built over s keeps, come from keep (see Slabs); nil
// allocates them afresh.
func (s *Streams) Reset(base []int, rel []int32, keep *Slabs) {
	n := len(rel)
	s.start = s.start[:0]
	for p, b := range base {
		if b < 0 || b > n || (p == 0 && b != 0) || (p > 0 && b < base[p-1]) {
			panic(fmt.Sprintf("graph: Streams.Reset: stream %d starts at node %d of %d", p, b, n))
		}
		s.start = append(s.start, int32(b))
	}
	if len(base) == 0 && n > 0 {
		panic(fmt.Sprintf("graph: Streams.Reset: %d nodes in no stream", n))
	}
	s.start = append(s.start, int32(n))
	if keep == nil {
		keep = &Slabs{}
	}
	s.stream, s.pos = reuse(&keep.stream, n), reuse(&keep.pos, n)
	s.rel = rel

	// One pass per stream fills the stream tables and counts every
	// node's out-degree into off[u+1]; a prefix sum turns the counts into
	// list starts, and a second pass fills the lists with off[u] as u's
	// cursor — leaving off[u] at u's list end, which one shift turns back
	// into the list starts.
	if cap(s.off) < n+1 {
		s.off = make([]int32, n+1)
	}
	off := s.off[:n+1]
	clear(off)
	for p := 0; p+1 < len(s.start); p++ {
		first, end := s.start[p], s.start[p+1]
		for u := first; u < end; u++ {
			s.stream[u], s.pos[u] = int32(p), u-first
			if u+1 < end {
				off[u+1]++
			}
			if r := rel[u]; r >= 0 && int(r) < n {
				off[r+1]++
			} else if r != -1 {
				panic(fmt.Sprintf("graph: Streams.Reset: node %d's cross predecessor %d is out of range [0,%d)", u, r, n))
			}
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if cap(s.succ) < int(off[n]) {
		s.succ = make([]int32, off[n])
	}
	succ := s.succ[:off[n]]
	for p := 0; p+1 < len(s.start); p++ {
		for u, end := s.start[p], s.start[p+1]; u < end; u++ {
			if u+1 < end {
				succ[off[u]] = u + 1
				off[u]++
			}
			if r := rel[u]; r >= 0 {
				succ[off[r]] = u
				off[r]++
			}
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	s.off, s.succ = off, succ
}

// N returns the number of nodes.
func (s *Streams) N() int { return len(s.stream) }

// M returns the number of edges, program-order and cross alike.
func (s *Streams) M() int { return len(s.succ) }

// Width returns the number of streams.
func (s *Streams) Width() int { return len(s.start) - 1 }

// Stream returns the stream of node u.
func (s *Streams) Stream(u int) int { return int(s.stream[u]) }

// Succ returns u's successors in the order Tarjan visits them. The slice
// aliases s's storage and must not be mutated.
func (s *Streams) Succ(u int) []int32 { return s.succ[s.off[u]:s.off[u+1]] }
