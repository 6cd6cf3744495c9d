// Package graph implements the directed-graph machinery the detector needs:
// adjacency-list digraphs, Tarjan's strongly-connected-components algorithm,
// condensation, transitive reachability, and topological order.
//
// The happens-before-1 graph of a weak execution is NOT guaranteed to be
// acyclic (paper §3.1: "the so1 relation and hence the hb1 relation may
// contain cycles"), and the augmented graph G′ of §4.2 contains a cycle for
// every race edge by construction. Everything here therefore works on
// arbitrary digraphs: reachability is computed on the SCC condensation,
// which is always a DAG.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"weakrace/internal/bitset"
	"weakrace/internal/telemetry"
)

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// Parallel edges are permitted (and harmless for reachability/SCC);
// AddEdgeUnique suppresses them where the caller prefers.
//
// A Digraph is not safe for concurrent use while it is being mutated;
// HasEdge and AddEdgeUnique may build a per-node successor index on
// high-degree nodes, so even query methods count as mutation here.
type Digraph struct {
	adj  [][]int
	nEdg int
	// idx[u] is a successor set for node u, built lazily once u's degree
	// crosses idxThreshold so HasEdge/AddEdgeUnique stay O(1) instead of
	// O(out-degree) — the linear scan is a quadratic trap when a caller
	// funnels many unique edges through one hub node. nil until any node
	// needs it; maintained by AddEdge once built.
	idx []map[int]struct{}
}

// idxThreshold is the out-degree at which HasEdge/AddEdgeUnique switch
// from a linear adjacency scan to a per-node successor set. Below it the
// scan wins on constant factors (and most nodes stay below it).
const idxThreshold = 16

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d): negative size", n))
	}
	return &Digraph{adj: make([][]int, n)}
}

// NewWithDegrees returns a digraph with len(deg) nodes and no edges,
// whose adjacency lists are pre-carved out of one edge slab with
// capacity deg[u] each. A caller that counts its out-degrees up front
// (the detector's hb1 builder) then adds every edge with zero per-node
// allocations; exceeding a declared degree still works — that node's
// list just falls off the slab and grows normally.
func NewWithDegrees(deg []int32) *Digraph {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	slab := make([]int, total)
	adj := make([][]int, len(deg))
	off := 0
	for u, d := range deg {
		end := off + int(d)
		adj[u] = slab[off:off:end]
		off = end
	}
	return &Digraph{adj: adj}
}

// NewPlaced returns a digraph with len(deg) nodes whose adjacency
// lists are carved at FULL length deg[u] out of one edge slab, for
// callers that compute every edge's final slot up front and write them
// with Place. It produces the same slab layout as NewWithDegrees; a
// builder that places edge u→v at the slot AddEdge would have appended
// it to yields a byte-identical adjacency structure — the detector's
// parallel hb1 fill relies on exactly this. The edge count assumes
// every slot is placed.
func NewPlaced(deg []int32) *Digraph {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	slab := make([]int, total)
	adj := make([][]int, len(deg))
	off := 0
	for u, d := range deg {
		end := off + int(d)
		adj[u] = slab[off:end:end]
		off = end
	}
	return &Digraph{adj: adj, nEdg: total}
}

// Place writes v into slot k of node u's pre-sized adjacency list (see
// NewPlaced). Concurrent Place calls are safe whenever their (u, k)
// slots are disjoint — the slab-disjointness discipline of the parallel
// graph fill.
func (g *Digraph) Place(u, k, v int) {
	g.adj[u][k] = v
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.nEdg }

func (g *Digraph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.adj)))
	}
}

// AddEdge adds the directed edge u→v.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.adj[u] = append(g.adj[u], v)
	g.nEdg++
	if g.idx != nil && g.idx[u] != nil {
		g.idx[u][v] = struct{}{}
	}
}

// succSet returns node u's successor set, building it on first use once
// u's degree reaches idxThreshold; nil for low-degree nodes.
func (g *Digraph) succSet(u int) map[int]struct{} {
	if len(g.adj[u]) < idxThreshold {
		return nil
	}
	if g.idx == nil {
		g.idx = make([]map[int]struct{}, len(g.adj))
	}
	if g.idx[u] == nil {
		m := make(map[int]struct{}, 2*len(g.adj[u]))
		for _, w := range g.adj[u] {
			m[w] = struct{}{}
		}
		g.idx[u] = m
	}
	return g.idx[u]
}

// AddEdgeUnique adds u→v unless an identical edge already exists. For
// low-degree nodes it is an O(out-degree) scan; past idxThreshold it
// switches to a per-node successor set, so bulk unique insertion through
// one node is linear overall, not quadratic.
func (g *Digraph) AddEdgeUnique(u, v int) {
	g.check(u)
	g.check(v)
	if m := g.succSet(u); m != nil {
		if _, dup := m[v]; dup {
			return
		}
	} else {
		for _, w := range g.adj[u] {
			if w == v {
				return
			}
		}
	}
	g.AddEdge(u, v)
}

// Succ returns the successor list of u. The slice is owned by the graph and
// must not be mutated.
func (g *Digraph) Succ(u int) []int {
	g.check(u)
	return g.adj[u]
}

// HasEdge reports whether the edge u→v exists. O(out-degree) for
// low-degree nodes; O(1) via the successor set past idxThreshold.
func (g *Digraph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if m := g.succSet(u); m != nil {
		_, ok := m[v]
		return ok
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph. The detector clones the
// happens-before-1 graph before augmenting it with race edges so callers
// keep an unaugmented view. The clone's successor index is rebuilt lazily
// rather than copied.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{adj: make([][]int, len(g.adj)), nEdg: g.nEdg}
	for i, a := range g.adj {
		if len(a) > 0 {
			c.adj[i] = append([]int(nil), a...)
		}
	}
	return c
}

// Reverse returns the graph with all edges flipped.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.N())
	for u, a := range g.adj {
		for _, v := range a {
			r.AddEdge(v, u)
		}
	}
	return r
}

// SCC holds the strongly connected components of a digraph: Comp[v] is the
// component id of node v, and components are numbered in reverse
// topological order of the condensation (Tarjan's property: a component is
// assigned its id only after all components it can reach). Members lists
// the nodes of each component.
type SCC struct {
	Comp    []int
	Members [][]int

	maxSize int
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.Members) }

// MaxSize returns the size of the largest component. It is tracked while
// Tarjan closes components, so consumers (telemetry, reports) share one
// computation instead of each rescanning Members.
func (s *SCC) MaxSize() int { return s.maxSize }

// SameComponent reports whether u and v are in the same SCC — the paper's
// test for two race events being in the same partition (§4.2).
func (s *SCC) SameComponent(u, v int) bool { return s.Comp[u] == s.Comp[v] }

// Scratch holds reusable traversal buffers for StronglyConnectedOverlay
// and CondensationOverlay: the Tarjan bookkeeping arrays and DFS stacks,
// plus the packed-key buffer the condensation sort-dedupe uses. Only
// buffers that are NOT retained by the returned structures live here
// (SCC.Comp, SCC.Members, and the condensation's adjacency are always
// freshly allocated — callers keep them after the scratch is reused).
// A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	index, low         []int
	onStack            []bool
	stack              []int
	callNode, callEdge []int
	keys               []uint64
	// Timestamp-pass scratch (NewTimestamps): per-node span flags and
	// span anchors, the stream-major node index, per-component frontier
	// flags, and the in-edge CSR the forward skeleton pass folds over.
	tsFlags            []uint8
	tsHeadOf, tsTailOf []int32
	tsNodeAt           []int32
	tsStrStart         []int32
	tsCompFlags        []uint8
	tsInOff, tsInCur   []int32
	tsInSrc            []int32
}

func (s *Scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

func (s *Scratch) i32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

func (s *Scratch) bytes(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	return (*buf)[:n]
}

// StronglyConnected computes the SCCs of g using an iterative Tarjan
// algorithm (iterative so million-node traces cannot overflow the stack).
func StronglyConnected(g *Digraph) *SCC {
	return StronglyConnectedOverlay(g, nil, nil)
}

// StronglyConnectedOverlay computes the SCCs of the graph g ⊕ extra: the
// node set of g with, for every node u, the successors g.Succ(u) followed
// by extra[u]. The overlay graph is never materialized — this is how the
// detector runs Tarjan over the augmented graph G′ (hb1 edges plus
// per-node race-partner lists) without cloning a multi-million-edge
// digraph. extra may be nil (plain SCCs of g); s may be nil (scratch is
// allocated locally). The returned SCC's Comp/Members are freshly
// allocated and remain valid after s is reused.
func StronglyConnectedOverlay(g *Digraph, extra [][]int32, s *Scratch) *SCC {
	n := g.N()
	if extra != nil && len(extra) != n {
		panic(fmt.Sprintf("graph: overlay size %d, graph size %d", len(extra), n))
	}
	if s == nil {
		s = &Scratch{}
	}
	const unvisited = -1
	index := s.ints(&s.index, n)
	low := s.ints(&s.low, n)
	comp := make([]int, n)
	if cap(s.onStack) < n {
		s.onStack = make([]bool, n)
	}
	onStack := s.onStack[:n]
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
		onStack[i] = false
	}
	var (
		members [][]int
		maxSize int
		nextIdx int
	)
	// Every node lands in exactly one component, so all Members rows are
	// carved out of one n-int slab — one allocation instead of one per
	// component (the per-component append was a third of the detector's
	// allocation profile). The slab is freshly allocated, never pooled:
	// Members is retained by the caller after the scratch is reused.
	slab := make([]int, 0, n)
	stack := s.stack[:0]       // Tarjan's node stack
	callNode := s.callNode[:0] // explicit DFS stack: node
	callEdge := s.callEdge[:0] // explicit DFS stack: next successor index to visit
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callNode = append(callNode[:0], root)
		callEdge = append(callEdge[:0], 0)
		index[root] = nextIdx
		low[root] = nextIdx
		nextIdx++
		stack = append(stack, root)
		onStack[root] = true
		for len(callNode) > 0 {
			// Scan the frame's remaining successors — g's own adjacency
			// first, then the overlay list — in one tight loop, keeping
			// the lowlink in a register. One stack round-trip per DFS
			// descent, not one per edge.
			v := callNode[len(callNode)-1]
			ei := callEdge[len(callEdge)-1]
			adj := g.adj[v]
			lowv := low[v]
			descended := false
			for {
				var w int
				if ei < len(adj) {
					w = adj[ei]
				} else if extra != nil {
					x := extra[v]
					if ei-len(adj) >= len(x) {
						break
					}
					w = int(x[ei-len(adj)])
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
					callEdge = append(callEdge, 0)
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
				start := len(slab)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(members)
					slab = append(slab, w)
					if w == v {
						break
					}
				}
				ms := slab[start:len(slab):len(slab)]
				if len(ms) > maxSize {
					maxSize = len(ms)
				}
				members = append(members, ms)
			}
		}
	}
	s.stack, s.callNode, s.callEdge = stack[:0], callNode[:0], callEdge[:0]
	// graph.scc.max_size tracks the largest SCC across EVERY SCC
	// computation in the process — hb1 graphs, explicit augmented graphs,
	// and implicit overlays alike. The per-analysis augmented-graph-only
	// view is detect.scc.max_size (see core.flushTelemetry).
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Gauge("graph.scc.max_size").SetMax(int64(maxSize))
	}
	return &SCC{Comp: comp, Members: members, maxSize: maxSize}
}

// Condensation returns the DAG whose nodes are the SCCs of g, with an edge
// c1→c2 whenever some edge of g crosses from component c1 to c2. Duplicate
// cross edges are collapsed.
func Condensation(g *Digraph, scc *SCC) *Digraph {
	return CondensationOverlay(g, nil, scc, nil)
}

// CondensationOverlay builds the condensation DAG of the overlay graph
// g ⊕ extra (see StronglyConnectedOverlay) under the given component
// assignment. Cross edges are deduplicated by sorting packed (c1,c2)
// keys — no per-edge map — and the key buffer comes from s when non-nil.
// The returned DAG is freshly allocated and survives scratch reuse.
func CondensationOverlay(g *Digraph, extra [][]int32, scc *SCC, s *Scratch) *Digraph {
	k := scc.NumComponents()
	dag := New(k)
	var keys []uint64
	if s != nil {
		keys = s.keys[:0]
	}
	for u, a := range g.adj {
		cu := scc.Comp[u]
		for _, v := range a {
			if cv := scc.Comp[v]; cu != cv {
				keys = append(keys, uint64(cu)<<32|uint64(cv))
			}
		}
		if extra != nil {
			for _, v := range extra[u] {
				if cv := scc.Comp[v]; cu != cv {
					keys = append(keys, uint64(cu)<<32|uint64(cv))
				}
			}
		}
	}
	slices.Sort(keys)
	prev := uint64(1)<<63 | 1<<31 // component ids are < 2³¹, so this never collides
	for _, key := range keys {
		if key == prev {
			continue
		}
		prev = key
		dag.AddEdge(int(key>>32), int(key&0xffffffff))
	}
	if s != nil {
		s.keys = keys[:0]
	}
	return dag
}

// CondReach answers component-level reachability queries on a
// condensation DAG without building its transitive closure: the
// descendant set of a source component is computed by one memoized DFS
// the first time that component is queried. It exists for the partition
// order of Definition 4.1, where only the k data-race components (k ≪ C)
// are ever sources — the full closure pays for C rows to serve k.
// Queries are safe for concurrent use.
type CondReach struct {
	scc  *SCC
	dag  *Digraph
	rows []atomic.Pointer[bitset.Set]
}

// NewCondReach wraps a condensation DAG (components numbered in reverse
// topological order, as StronglyConnectedOverlay produces) for memoized
// reachability queries. No closure work happens until the first query.
func NewCondReach(dag *Digraph, scc *SCC) *CondReach {
	return &CondReach{scc: scc, dag: dag, rows: make([]atomic.Pointer[bitset.Set], dag.N())}
}

// SCC returns the component structure the queries are defined over.
func (r *CondReach) SCC() *SCC { return r.scc }

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
	row := bitset.New(r.dag.N())
	row.Add(c)
	stack := []int{c}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range r.dag.Succ(u) {
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

// Reachability answers "is there a path u⇝v?" queries on an arbitrary
// digraph by computing the transitive closure of the SCC condensation
// with bit-set rows: O(C²/64) memory and one C-bit row union per
// condensation edge, all carved from a single slab allocation. It is the
// reference the timestamp layer and the condensation queries are tested
// against.
//
// Before touching a row, every query runs two O(1) pre-checks that need
// no closure at all: Tarjan numbers components in reverse topological
// order, so a lower id can never reach a higher id; and a component can
// only reach components of strictly lower topological level (longest
// path to a sink). The closure is immutable once built, so queries are
// safe for concurrent use.
type Reachability struct {
	scc   *SCC
	level []int32 // level[c] = longest path (in edges) from component c to a sink
	rows  []*bitset.Set
}

// NewReachability precomputes the full closure for g: every row is
// materialized at construction, queries never allocate.
func NewReachability(g *Digraph) *Reachability {
	defer telemetry.Default().StartSpan("graph.reachability").End()
	scc := StronglyConnected(g)
	dag := Condensation(g, scc)
	k := scc.NumComponents()
	r := &Reachability{
		scc:   scc,
		level: make([]int32, k),
		rows:  make([]*bitset.Set, k),
	}
	// Condensation edges go from higher to lower component ids, so
	// ascending order sees every successor before its predecessors.
	for c := 0; c < k; c++ {
		lvl := int32(0)
		for _, d := range dag.Succ(c) {
			if l := r.level[d] + 1; l > lvl {
				lvl = l
			}
		}
		r.level[c] = lvl
	}
	// The whole closure in one slab, rows in ascending id order: every
	// successor's row is final before its predecessors read it.
	words := (k + wordBits - 1) / wordBits
	slab := make([]uint64, k*words)
	unions := 0
	for c := 0; c < k; c++ {
		row := bitset.Wrap(slab[c*words : (c+1)*words : (c+1)*words])
		row.Add(c)
		for _, d := range dag.Succ(c) {
			row.Union(r.rows[d])
		}
		unions += len(dag.Succ(c))
		r.rows[c] = row
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.reach.builds").Inc()
		reg.Counter("graph.reach.nodes").Add(int64(g.N()))
		reg.Counter("graph.reach.edges").Add(int64(g.M()))
		reg.Counter("graph.reach.components").Add(int64(k))
		// Transitive-closure work performed: one k-bit row union per
		// condensation edge.
		if k > 0 {
			reg.Counter("graph.reach.row_unions").Add(int64(unions))
			reg.Counter("graph.reach.rows_built").Add(int64(k))
		}
	}
	return r
}

// SCC returns the component structure computed for the graph.
func (r *Reachability) SCC() *SCC { return r.scc }

// wordBits mirrors the bitset word size for slab sizing.
const wordBits = 64

// compReaches answers component-level reachability with the O(1)
// pre-checks first, touching a closure row only when the pre-checks
// cannot decide.
func (r *Reachability) compReaches(cu, cv int) bool {
	if cu == cv {
		return true
	}
	// Component ids descend along condensation edges, and topological
	// level strictly decreases along any non-trivial path — either check
	// failing proves there is no path without consulting the closure.
	if cu < cv || r.level[cu] <= r.level[cv] {
		return false
	}
	return r.rows[cu].Contains(cv)
}

// Reaches reports whether there is a (possibly empty) path from u to v.
// Reaches(u, u) is always true.
func (r *Reachability) Reaches(u, v int) bool {
	return r.compReaches(r.scc.Comp[u], r.scc.Comp[v])
}

// ReachesProper reports whether there is a non-trivial path from u to v:
// u≠v on a path, or u and v lie on a common cycle.
func (r *Reachability) ReachesProper(u, v int) bool {
	if u == v {
		// A proper path u⇝u exists iff u is on a cycle, i.e. its SCC has
		// more than one node or a self-loop. Self-loops never occur in
		// happens-before graphs, so component size is the test we need.
		return len(r.scc.Members[r.scc.Comp[u]]) > 1
	}
	return r.Reaches(u, v)
}

// Ordered reports whether u and v are ordered either way — the negation of
// the paper's "not ordered by the hb1 relation" race test.
func (r *Reachability) Ordered(u, v int) bool {
	return r.Reaches(u, v) || r.Reaches(v, u)
}

// ComponentReaches reports whether component c1 reaches component c2 in the
// condensation (used for the partition order P of Definition 4.1).
func (r *Reachability) ComponentReaches(c1, c2 int) bool {
	return r.compReaches(c1, c2)
}

// TopologicalOrder returns a topological order of g's nodes, or an error if
// g has a cycle. It is used by the SC-verifier to linearize candidate
// prefixes.
func TopologicalOrder(g *Digraph) ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for _, a := range g.adj {
		for _, v := range a {
			indeg[v]++
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// IsAcyclic reports whether g has no directed cycle.
func IsAcyclic(g *Digraph) bool {
	_, err := TopologicalOrder(g)
	return err == nil
}
