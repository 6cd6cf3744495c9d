// Package graph implements the directed-graph machinery the detector
// needs: flat stream-structured graphs (the shape of happens-before-1)
// and their vector-clock timestamps, one Tarjan pass over such a graph
// plus a dense partner overlay (the augmented graph G′) that yields both
// the strongly connected components and their condensation, and
// memoized reachability over that condensation.
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
	"sync/atomic"

	"weakrace/internal/bitset"
	"weakrace/internal/telemetry"
)

// SCC holds the strongly connected components of a digraph and their
// condensation. Comp[v] is the component id of node v, and components are
// numbered in reverse topological order of the condensation (Tarjan's
// property: a component is assigned its id only after all components it
// can reach), so every condensation edge runs to a lower id.
type SCC struct {
	Comp []int32

	// The condensation in compressed-sparse-row form: component c's
	// successors are succ[off[c]:off[c+1]], distinct, in the order the
	// DFS met them.
	off, succ []int32
	maxSize   int
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.off) - 1 }

// Succ returns the successors of component c in the condensation: every
// other component an edge from one of c's nodes enters, each once. The
// slice aliases the decomposition's storage; callers must not mutate it.
func (s *SCC) Succ(c int) []int32 { return s.succ[s.off[c]:s.off[c+1]] }

// MaxSize returns the size of the largest component, counted while the
// components close.
func (s *SCC) MaxSize() int { return s.maxSize }

// Scratch holds reusable traversal buffers for the SCC and timestamp
// passes: the DFS frames, the stack of open nodes and the stack of
// condensation targets beside them, the per-component dedupe stamps, and
// the merge order, stream heads and stream lengths of the clock pass.
// Only buffers that are NOT retained by the returned structures live
// here (what the results keep comes from a Slabs, or is allocated
// fresh). A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	frames                []frame
	stack, targets, stamp []int32
	order, head, strLen   []int32
}

// frame is one node on the DFS path: the node, its successor cursor, the
// index it was visited with, and the height of the target stack when it
// was entered.
type frame struct{ v, next, index, targets int32 }

// Slabs holds the storage the graph results retain: a Streams' stream
// and position tables (which the Timestamps built over it keep), the
// Timestamps' clocks, an SCC's component ids and condensation, and a
// CondReach's row table. A result built through a Slabs aliases it, so
// the next build of the same kind through that Slabs invalidates the
// earlier result; a nil Slabs allocates each result afresh. A caller
// that drops every result before building the next (a campaign worker
// analyzing one seed at a time) passes one Slabs to every build and
// stops re-allocating them. The zero value is ready to use; a Slabs is
// not safe for concurrent use.
type Slabs struct {
	stream, pos     []int32
	fw              []uint32
	bw              []int32
	comp, off, succ []int32
	rows            []atomic.Pointer[bitset.Set]
}

// reuse returns *buf resliced to n, reallocating it when its capacity
// is short or it is nil. The contents are NOT zeroed.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n || *buf == nil {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// SCC computes the strongly connected components of s plus, when
// partners is non-nil, the partner edges u→partners[u*Width()+p] of
// every entry that is not −1: the detector's augmented graph G′, whose
// race edges reach it as a dense events × CPUs table of per-CPU minimal
// partners. The same pass collects the condensation. It is an iterative
// Tarjan (so million-node traces cannot overflow the stack) that visits
// each node's own successors, then its partners in row order: that order
// fixes the component numbering. sc (optional) supplies the traversal
// scratch; the result remains valid after sc is reused. keep (optional)
// supplies the component ids and condensation the result holds (see
// Slabs); nil allocates them afresh.
//
// The bookkeeping is Pearce's single array (D. J. Pearce, "A
// space-efficient algorithm for finding strongly connected components",
// IPL 116(1), 2016), rindex, which ends up as Comp. rindex[v] is 0 until
// v is visited. While v's component is open it holds the least visit
// index v is known to reach. Once the component closes it holds the
// component's slot c, counted down from n. Visit indices are recycled
// as components close, so an open value never exceeds the number of
// open nodes, which stays below every slot handed out: "w's component
// has closed" is rindex[w] > c. Slot c is Tarjan's id n−c.
//
// An edge into a closed component is a condensation edge, and so is a
// tree edge to a child that closed its own component. Their target
// components go on a stack beside the DFS frames. A closing component
// pops the targets its members pushed, dedupes them with a stamp per
// component and appends them as its row. Components close in ascending
// id, so the rows come out in order.
func (s *Streams) SCC(partners []int32, sc *Scratch, keep *Slabs) *SCC {
	width := s.overlay(partners)
	n := s.N()
	if sc == nil {
		sc = &Scratch{}
	}
	if keep == nil {
		keep = &Slabs{}
	}
	rindex := reuse(&keep.comp, n)
	clear(rindex)
	off := append(reuse(&keep.off, 0), 0)
	succ := reuse(&keep.succ, 0)
	frames, stack := sc.frames[:0], sc.stack[:0]
	targets, stamp := sc.targets[:0], sc.stamp[:0]
	index, c := int32(1), int32(n)
	maxSize := 0
	for root := range int32(n) {
		if rindex[root] != 0 {
			continue
		}
		rindex[root] = index
		frames = append(frames, frame{root, s.off[root], index, int32(len(targets))})
		index++
		for len(frames) > 0 {
			// Scan the frame's remaining successors — the CSR list
			// first, then the partner row — in one tight loop, keeping
			// the node's low value in a register. The cursor runs on
			// from the list into the row, so resuming a frame costs
			// nothing.
			f := frames[len(frames)-1]
			v := int(f.v)
			ei, end := int(f.next), int(s.off[v+1])
			var row []int32
			if partners != nil {
				row = partners[v*width : (v+1)*width]
			}
			low := rindex[v]
			descended := false
			for !descended {
				var w int32
				if ei < end {
					w = s.succ[ei]
				} else if j := ei - end; j < len(row) {
					if w = row[j]; w < 0 {
						ei++
						continue
					}
				} else {
					break
				}
				ei++
				switch rw := rindex[w]; {
				case rw == 0:
					frames[len(frames)-1].next = int32(ei)
					rindex[v] = low
					rindex[w] = index
					frames = append(frames, frame{w, s.off[w], index, int32(len(targets))})
					index++
					descended = true
				case rw > c:
					targets = append(targets, int32(n)-rw)
				case rw < low:
					low = rw
				}
			}
			if descended {
				continue
			}
			frames = frames[:len(frames)-1]
			if low < f.index {
				// v reaches an open node visited before it, so it
				// belongs to that node's component: leave it open and
				// hand its low value to its parent.
				rindex[v] = low
				stack = append(stack, f.v)
				parent := frames[len(frames)-1].v
				rindex[parent] = min(rindex[parent], low)
				continue
			}
			// v roots a component: close it with its open descendants.
			size := 1
			for len(stack) > 0 && rindex[stack[len(stack)-1]] >= f.index {
				rindex[stack[len(stack)-1]] = c
				stack = stack[:len(stack)-1]
				size++
			}
			rindex[v] = c
			index -= int32(size)
			maxSize = max(maxSize, size)
			id := int32(n) - c
			c--
			for _, t := range targets[f.targets:] {
				if stamp[t] != id {
					stamp[t] = id
					succ = append(succ, t)
				}
			}
			stamp = append(stamp, -1)
			off = append(off, int32(len(succ)))
			targets = targets[:f.targets]
			if len(frames) > 0 {
				targets = append(targets, id)
			}
		}
	}
	for v, r := range rindex {
		rindex[v] = int32(n) - r
	}
	sc.frames, sc.stack, sc.targets, sc.stamp = frames, stack, targets, stamp[:0]
	keep.off, keep.succ = off, succ
	// graph.scc.max_size tracks the largest SCC across EVERY SCC
	// computation in the process — hb1's per-component clock fallback
	// and G′ alike. The per-analysis G′-only view is detect.scc.max_size
	// (see core.flushTelemetry).
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Gauge("graph.scc.max_size").SetMax(int64(maxSize))
	}
	return &SCC{Comp: rindex, off: off, succ: succ, maxSize: maxSize}
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
	scc  *SCC
	rows []atomic.Pointer[bitset.Set]
}

// NewCondReach wraps scc's condensation for memoized reachability
// queries. No closure work happens until the first query. keep
// (optional) supplies the row table (see Slabs); nil allocates it afresh.
func NewCondReach(scc *SCC, keep *Slabs) *CondReach {
	if keep == nil {
		keep = &Slabs{}
	}
	rows := reuse(&keep.rows, scc.NumComponents())
	clear(rows)
	return &CondReach{scc: scc, rows: rows}
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
	return r.ComponentReaches(int(r.scc.Comp[u]), int(r.scc.Comp[v]))
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
		for _, v32 := range r.scc.Succ(u) {
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
