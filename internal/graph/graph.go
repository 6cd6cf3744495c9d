// Package graph implements the directed-graph machinery the detector
// needs: flat stream-structured graphs (the shape of happens-before-1)
// and their vector-clock timestamps, Tarjan's strongly-connected-
// components algorithm over such a graph plus a dense partner overlay
// (the augmented graph G′), and memoized reachability over the
// condensation.
//
// The happens-before-1 graph of a weak execution is NOT guaranteed to be
// acyclic (paper §3.1: "the so1 relation and hence the hb1 relation may
// contain cycles"), and the augmented graph G′ of §4.2 contains a cycle for
// every race edge by construction. Everything here therefore works on
// cyclic graphs: reachability is computed on the SCC condensation,
// which is always a DAG.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"weakrace/internal/bitset"
	"weakrace/internal/telemetry"
)

// SCC holds the strongly connected components of a digraph: Comp[v] is the
// component id of node v, and components are numbered in reverse
// topological order of the condensation (Tarjan's property: a component is
// assigned its id only after all components it can reach). Members lists
// the nodes of each component.
type SCC struct {
	Comp []int

	// members holds every component's nodes back to back, component c
	// at members[off[c]:off[c+1]]: two allocations per decomposition,
	// not one row header per component.
	members []int
	off     []int32
	maxSize int
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.off) - 1 }

// Members returns the nodes of component c, aliasing the decomposition's
// storage; callers must not mutate it.
func (s *SCC) Members(c int) []int {
	lo, hi := s.off[c], s.off[c+1]
	return s.members[lo:hi:hi]
}

// MaxSize returns the size of the largest component. It is tracked while
// Tarjan closes components, so consumers (telemetry, reports) share one
// computation instead of each rescanning the members.
func (s *SCC) MaxSize() int { return s.maxSize }

// Scratch holds reusable traversal buffers for the SCC, condensation and
// timestamp passes: the Tarjan bookkeeping arrays and DFS stacks, the
// packed-key buffer the condensation sort-dedupe uses, and the merge
// order and stream heads of the clock pass. Only buffers that are NOT
// retained by the returned structures live here (SCC.Comp, the members,
// the condensation and the clocks are always freshly allocated —
// callers keep them after the scratch is reused). A Scratch is not safe
// for concurrent use; pool one per worker.
type Scratch struct {
	index, low         []int
	onStack            []bool
	stack              []int
	callNode, callEdge []int
	keys               []uint64
	order, head        []int32
}

func (s *Scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// SCC computes the strongly connected components of s plus, when
// partners is non-nil, the partner edges u→partners[u*Width()+p] of
// every entry that is not −1: the detector's augmented graph G′, whose
// race edges reach it as a dense events × CPUs table of per-CPU minimal
// partners. It is an iterative Tarjan (so million-node traces cannot
// overflow the stack) that visits each node's own successors, then its
// partners in row order: that order fixes the component numbering. sc
// (optional) supplies the Tarjan scratch; the result is freshly
// allocated and remains valid after sc is reused.
func (s *Streams) SCC(partners []int32, sc *Scratch) *SCC {
	width := s.overlay(partners)
	n := s.N()
	if sc == nil {
		sc = &Scratch{}
	}
	const unvisited = -1
	index := sc.ints(&sc.index, n)
	low := sc.ints(&sc.low, n)
	comp := make([]int, n)
	if cap(sc.onStack) < n {
		sc.onStack = make([]bool, n)
	}
	onStack := sc.onStack[:n]
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
		onStack[i] = false
	}
	// Every node lands in exactly one component, so the members are one
	// n-int slab plus one offset per component, both sized up front.
	// Both are freshly allocated, never pooled: the SCC keeps them after
	// the scratch is reused.
	members := make([]int, 0, n)
	off := make([]int32, 1, n+1)
	maxSize, nextIdx := 0, 0
	stack := sc.stack[:0]       // Tarjan's node stack
	callNode := sc.callNode[:0] // explicit DFS stack: node
	callEdge := sc.callEdge[:0] // explicit DFS stack: successor cursor
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callNode = append(callNode[:0], root)
		callEdge = append(callEdge[:0], int(s.off[root]))
		index[root] = nextIdx
		low[root] = nextIdx
		nextIdx++
		stack = append(stack, root)
		onStack[root] = true
		for len(callNode) > 0 {
			// Scan the frame's remaining successors — the CSR list
			// first, then the partner row — in one tight loop, keeping
			// the lowlink in a register. The cursor runs on from the
			// list into the row, so resuming a frame costs nothing.
			v := callNode[len(callNode)-1]
			ei := callEdge[len(callEdge)-1]
			end := int(s.off[v+1])
			var row []int32
			if partners != nil {
				row = partners[v*width : (v+1)*width]
			}
			lowv := low[v]
			descended := false
			for {
				var w int
				if ei < end {
					w = int(s.succ[ei])
				} else if j := ei - end; j < len(row) {
					if w = int(row[j]); w < 0 {
						ei++
						continue
					}
				} else {
					break
				}
				ei++
				if index[w] == unvisited {
					callEdge[len(callEdge)-1] = ei
					low[v] = lowv
					index[w] = nextIdx
					low[w] = nextIdx
					nextIdx++
					stack = append(stack, w)
					onStack[w] = true
					callNode = append(callNode, w)
					callEdge = append(callEdge, int(s.off[w]))
					descended = true
					break
				} else if onStack[w] && index[w] < lowv {
					lowv = index[w]
				}
			}
			if descended {
				continue
			}
			low[v] = lowv
			// Finished v: pop the DFS frame, propagate lowlink, maybe
			// close a component.
			callNode = callNode[:len(callNode)-1]
			callEdge = callEdge[:len(callEdge)-1]
			if len(callNode) > 0 {
				parent := callNode[len(callNode)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				c, start := len(off)-1, len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = c
					members = append(members, w)
					if w == v {
						break
					}
				}
				off = append(off, int32(len(members)))
				maxSize = max(maxSize, len(members)-start)
			}
		}
	}
	sc.stack, sc.callNode, sc.callEdge = stack[:0], callNode[:0], callEdge[:0]
	// graph.scc.max_size tracks the largest SCC across EVERY SCC
	// computation in the process — hb1's per-component clock fallback
	// and G′ alike. The per-analysis G′-only view is detect.scc.max_size
	// (see core.flushTelemetry).
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Gauge("graph.scc.max_size").SetMax(int64(maxSize))
	}
	return &SCC{Comp: comp, members: members, off: off, maxSize: maxSize}
}

// overlay checks that partners is nil or one row of Width() entries per
// node, and returns the row width.
func (s *Streams) overlay(partners []int32) int {
	w := s.Width()
	if partners != nil && len(partners) != s.N()*w {
		panic(fmt.Sprintf("graph: partner table of %d entries for %d nodes × %d streams", len(partners), s.N(), w))
	}
	return w
}

// CondReach answers component-level reachability queries on a
// condensation DAG without building its transitive closure: the
// descendant set of a source component is computed by one memoized
// DFS the first time that component is queried. It exists for the partition
// order of Definition 4.1, where only the k data-race components (k ≪ C)
// are ever sources — the full closure pays for C rows to serve k.
// Queries are safe for concurrent use.
type CondReach struct {
	scc *SCC
	// The condensation DAG in compressed-sparse-row form: component c's
	// successors are succ[off[c]:off[c+1]], ascending and distinct.
	off, succ []int32
	rows      []atomic.Pointer[bitset.Set]
}

// NewCondReach builds the condensation of s plus partners (see SCC)
// under the component assignment scc — an edge c1→c2 whenever some edge
// crosses from component c1 to c2 — and wraps it for memoized
// reachability queries. Cross edges are deduplicated by sorting packed
// (c1,c2) keys, no per-edge map; the key buffer comes from sc when
// non-nil. No closure work happens until the first query.
func NewCondReach(s *Streams, partners []int32, scc *SCC, sc *Scratch) *CondReach {
	width := s.overlay(partners)
	var keys []uint64
	if sc != nil {
		keys = sc.keys[:0]
	}
	for u := 0; u < s.N(); u++ {
		cu := scc.Comp[u]
		for _, v := range s.Succ(u) {
			if cv := scc.Comp[v]; cu != cv {
				keys = append(keys, uint64(cu)<<32|uint64(cv))
			}
		}
		if partners == nil {
			continue
		}
		for _, v := range partners[u*width : (u+1)*width] {
			if v < 0 {
				continue
			}
			if cv := scc.Comp[v]; cu != cv {
				keys = append(keys, uint64(cu)<<32|uint64(cv))
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	// The keys sort by source component, so their targets are already
	// the CSR successor array; off counts each source's edges, and a
	// prefix sum turns the counts into list ends.
	k := scc.NumComponents()
	r := &CondReach{scc: scc, off: make([]int32, k+1), succ: make([]int32, len(keys)),
		rows: make([]atomic.Pointer[bitset.Set], k)}
	for i, key := range keys {
		r.succ[i] = int32(key & 0xffffffff)
		r.off[key>>32+1]++
	}
	for c := 0; c < k; c++ {
		r.off[c+1] += r.off[c]
	}
	if sc != nil {
		sc.keys = keys[:0]
	}
	return r
}

// ComponentReaches reports whether component c1 reaches c2 in the DAG.
func (r *CondReach) ComponentReaches(c1, c2 int) bool {
	if c1 == c2 {
		return true
	}
	if c1 < c2 {
		// Reverse-topological numbering: edges only go to lower ids.
		return false
	}
	row := r.rows[c1].Load()
	if row == nil {
		row = r.materialize(c1)
	}
	return row.Contains(c2)
}

// Reaches reports whether node u reaches node v in the underlying graph.
func (r *CondReach) Reaches(u, v int) bool {
	return r.ComponentReaches(r.scc.Comp[u], r.scc.Comp[v])
}

// materialize runs one DFS from c, reusing any descendant rows already
// built, and publishes the descendant set by compare-and-swap: a row is
// stored only once fully built, its content is a pure function of the
// DAG (the unique descendant set of c), and every query after
// publication is one atomic load. Concurrent queries may duplicate a
// DFS; whichever row publishes first wins and the duplicates are
// discarded, so no lock ever serializes the callers.
func (r *CondReach) materialize(c int) *bitset.Set {
	row := bitset.New(len(r.rows))
	row.Add(c)
	stack := []int{c}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v32 := range r.succ[r.off[u]:r.off[u+1]] {
			v := int(v32)
			if row.Contains(v) {
				continue
			}
			if rv := r.rows[v].Load(); rv != nil {
				row.Union(rv)
				continue
			}
			row.Add(v)
			stack = append(stack, v)
		}
	}
	if !r.rows[c].CompareAndSwap(nil, row) {
		return r.rows[c].Load() // lost the publication race; reuse the winner
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.condreach.rows_built").Inc()
	}
	return row
}
