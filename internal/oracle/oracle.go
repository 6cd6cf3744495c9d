// Package oracle holds the reference algorithms the detector's tests
// check it against, written as plainly as the paper states them and
// sharing no code with internal/graph or internal/core: hb1 built
// explicitly from a trace, a DFS transitive closure with bit-set rows, a
// recursive Tarjan, the condensation built edge by edge, and the
// augmented graph G′ with its races and partitions by brute force.
// Everything is quadratic or worse in the event count and meant for
// test-sized traces.
//
// Only _test.go files import this package; CI fails if a command or the
// benchmark module depends on it.
package oracle

import (
	"slices"

	"weakrace/internal/bitset"
	"weakrace/internal/memmodel"
	"weakrace/internal/trace"
)

// HB1 returns hb1 = po ∪ so1 of tr (Definitions 2.2–2.3) as adjacency
// lists over processor-major event ids: a po edge between consecutive
// events of each CPU and an so1 edge from each policy-admitted
// acquire's observed release, appended in the processor-major scan
// order (u's po edge on reaching u, the so1 edge into v on reaching v)
// whose successor lists G′'s component ids follow.
func HB1(tr *trace.Trace, pairing memmodel.PairingPolicy) [][]int {
	adj := make([][]int, tr.NumEvents())
	for c := range tr.NumCPUs {
		from, to := tr.Stream(c)
		for id := from; id < to; id++ {
			if id+1 < to {
				adj[id] = append(adj[id], id+1)
			}
			if ev := tr.Event(id); ev.IsReadSync() && ev.Observed() >= 0 && pairing.CanPair(ev.ObservedRole()) {
				r := ev.Observed()
				adj[r] = append(adj[r], id)
			}
		}
	}
	return adj
}

// Closure is the reflexive transitive closure of a digraph: one bit-set
// row per node, filled by a DFS from that node.
type Closure struct{ rows []*bitset.Set }

// NewClosure computes the closure of adj.
func NewClosure(adj [][]int) *Closure {
	c := &Closure{rows: make([]*bitset.Set, len(adj))}
	for s := range adj {
		row := bitset.New(len(adj))
		row.Add(s)
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !row.Contains(v) {
					row.Add(v)
					stack = append(stack, v)
				}
			}
		}
		c.rows[s] = row
	}
	return c
}

// Reaches reports whether a (possibly empty) path leads from u to v.
func (c *Closure) Reaches(u, v int) bool { return c.rows[u].Contains(v) }

// Ordered reports whether u and v are ordered either way.
func (c *Closure) Ordered(u, v int) bool { return c.Reaches(u, v) || c.Reaches(v, u) }

// Tarjan returns the strongly connected component of every node of adj,
// by the textbook recursive algorithm. Components are numbered in the
// order they close, which is reverse topological order of the
// condensation: over the same successor lists, internal/graph's
// iterative Tarjan numbers every component alike.
func Tarjan(adj [][]int) []int {
	n := len(adj)
	index, low, comp := make([]int, n), make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	var stack []int
	next, ncomp := 0, 0
	var visit func(u int)
	visit = func(u int) {
		index[u], low[u] = next, next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range adj[u] {
			if index[v] < 0 {
				visit(v)
				low[u] = min(low[u], low[v])
			} else if onStack[v] {
				low[u] = min(low[u], index[v])
			}
		}
		if low[u] == index[u] {
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				comp[v] = ncomp
				if v == u {
					break
				}
			}
			ncomp++
		}
	}
	for u := 0; u < n; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	return comp
}

// Condensation returns the condensation of adj under the component
// assignment comp: for each component, the other components some edge
// from one of its nodes enters, ascending and each once.
func Condensation(adj [][]int, comp []int) [][]int {
	k := 0
	for _, c := range comp {
		k = max(k, c+1)
	}
	succ := make([][]int, k)
	for u, vs := range adj {
		for _, v := range vs {
			if cu, cv := comp[u], comp[v]; cu != cv && !slices.Contains(succ[cu], cv) {
				succ[cu] = append(succ[cu], cv)
			}
		}
	}
	for _, row := range succ {
		slices.Sort(row)
	}
	return succ
}

// GPrime recomputes core.Analyze's races and partitions straight from a
// trace: every conflicting pair (sync pairs included) that hb1's
// closure leaves unordered, found by brute force; the augmented graph
// G′ written down as §4.2 does — hb1 plus a doubly-directed edge per
// race — with its components by Tarjan and its closure; and the
// partitions with their first flags. Event ids are processor-major.
type GPrime struct {
	Races     []Race // data races, sorted by (A, B)
	SyncRaces int
	// MinPartner[u][c] is u's po-minimal race partner on CPU c (data or
	// sync race): the compressed G′ edge core keeps per (event, CPU).
	MinPartner []map[int]int
	Reach      *Closure // G′'s closure
	Parts      []Part   // sorted by smallest event
	First      []int    // indexes Parts
}

// Race is a data race of the oracle: events A < B and the locations they
// conflict on, ascending.
type Race struct {
	A, B int
	Locs []int
}

// Part is a partition: the data races (indexes into GPrime.Races) of
// one G′ component, their distinct events ascending, and whether no
// other partition reaches it.
type Part struct {
	Races  []int
	Events []int
	First  bool
}

// NewGPrime builds the G′ oracle for tr under the given pairing policy.
func NewGPrime(tr *trace.Trace, pairing memmodel.PairingPolicy) *GPrime {
	n := tr.NumEvents()
	cpuOf := make([]int, n)
	for c := range tr.NumCPUs {
		from, to := tr.Stream(c)
		for id := from; id < to; id++ {
			cpuOf[id] = c
		}
	}
	g := HB1(tr, pairing)
	hb := NewClosure(g)

	// acc[u][l] reports whether u writes l, for every location u accesses.
	acc := make([]map[int]bool, n)
	for u := range acc {
		m := map[int]bool{}
		if ev := tr.Event(u); ev.Kind() == trace.Sync {
			m[int(ev.Loc())] = ev.IsWriteSync()
		} else {
			for _, l := range tr.Reads(u) {
				m[int(l)] = false
			}
			for _, l := range tr.Writes(u) {
				m[int(l)] = true
			}
		}
		acc[u] = m
	}
	o := &GPrime{MinPartner: make([]map[int]int, n)}
	addPartner := func(u, v int) {
		if o.MinPartner[u] == nil {
			o.MinPartner[u] = map[int]int{}
		}
		if m, ok := o.MinPartner[u][cpuOf[v]]; !ok || v < m {
			o.MinPartner[u][cpuOf[v]] = v
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if hb.Ordered(u, v) {
				continue
			}
			var locs []int
			for l, wu := range acc[u] {
				if wv, ok := acc[v][l]; ok && (wu || wv) {
					locs = append(locs, l)
				}
			}
			if len(locs) == 0 {
				continue
			}
			slices.Sort(locs)
			g[u] = append(g[u], v)
			g[v] = append(g[v], u)
			addPartner(u, v)
			addPartner(v, u)
			if tr.Event(u).Kind() == trace.Sync && tr.Event(v).Kind() == trace.Sync {
				o.SyncRaces++
			} else {
				o.Races = append(o.Races, Race{A: u, B: v, Locs: locs})
			}
		}
	}
	comp := Tarjan(g)
	o.Reach = NewClosure(g)

	// Partitions: data races grouped by G′ component, ordered by their
	// smallest event; a partition is first when no other reaches it.
	byComp := map[int]*Part{}
	var order []*Part
	for ri, r := range o.Races {
		p := byComp[comp[r.A]]
		if p == nil {
			p = &Part{}
			byComp[comp[r.A]] = p
			order = append(order, p)
		}
		p.Races = append(p.Races, ri)
		for _, e := range []int{r.A, r.B} {
			if !slices.Contains(p.Events, e) {
				p.Events = append(p.Events, e)
			}
		}
	}
	for _, p := range order {
		slices.Sort(p.Events)
	}
	slices.SortFunc(order, func(x, y *Part) int { return x.Events[0] - y.Events[0] })
	for i, p := range order {
		p.First = true
		for j, q := range order {
			if i != j && o.Reach.Reaches(q.Events[0], p.Events[0]) {
				p.First = false
			}
		}
		if p.First {
			o.First = append(o.First, i)
		}
		o.Parts = append(o.Parts, *p)
	}
	return o
}

// Precedes reports whether partition i precedes partition j in the order
// P of Definition 4.1: G′ has a path from i's events to j's.
func (o *GPrime) Precedes(i, j int) bool {
	return o.Reach.Reaches(o.Parts[i].Events[0], o.Parts[j].Events[0])
}
