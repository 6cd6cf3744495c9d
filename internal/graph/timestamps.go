package graph

import (
	"fmt"

	"weakrace/internal/telemetry"
	"weakrace/internal/vclock"
)

// Timestamps answers reachability queries on a stream-structured digraph
// — one whose nodes are partitioned into per-processor streams, each
// stream chained by program-order edges — with vector-clock timestamps
// computed in a single topological pass, instead of bitset closure rows.
// This is the shape of the detector's happens-before-1 graph (po chains
// plus so1 edges), and the pass is the linear-time timestamping of
// Kini/Mathur-style happens-before detectors lifted to the post-mortem
// graph.
//
// hb1 may contain cycles on a weak execution (paper §3.1), so the clocks
// are assigned per strongly connected component. The forward clock of
// component c is
//
//	fw[c][p] = 1 + max{ pos(y) : y in stream p, comp(y) reaches c }
//
// (0 when no p-event reaches c). Program order makes "reaches x" a
// PREFIX of each stream, so that single per-stream maximum characterizes
// the entire ancestor cone exactly — on the acyclic part each component
// is one event and the clock is the classic event timestamp; cycles are
// handled exactly because members of an SCC share one clock. Hence
//
//	u reaches v  ⟺  u == v  or  fw[comp(v)][stream(u)] > pos(u),
//
// an O(1) epoch compare (vclock.Epoch.Covered). The mirrored backward
// frontier bw[c][p] is the least position of stream p reached from c, so
// Window brackets a whole stream against an event with two slab reads —
// the quantity the race sweep and the provenance certificates consume
// directly.
//
// The clocks are assigned per component in Tarjan order: Tarjan
// numbers components in reverse topological order, so one descending-id
// pass pushes each finished forward clock into its successors, and one
// ascending-id pass pulls the successors' backward frontiers. Each pass
// touches every component row and every cross-component edge once —
// O((events + edges) × streams) with no closure.
//
// The clocks are exact only when every stream's events form a
// program-order chain in g; arbitrary digraphs without that structure
// must keep using Reachability.
type Timestamps struct {
	scc    *SCC
	stream []int32 // stream[u]: the stream (processor) of node u
	pos    []int32 // pos[u]: u's position within its stream
	width  int
	fw     []uint32 // forward clocks, NumComponents x width
	bw     []int32  // backward frontiers, NumComponents x width
	strLen []int32  // events per stream (backward-frontier "none" value)
}

// NewTimestamps computes vector-clock timestamps for g, whose node u
// belongs to stream stream[u] (< width) at position pos[u], with each
// stream's events chained in program order. stream and pos are copied,
// so arena-backed callers may reuse their buffers; s (optional) supplies
// the Tarjan scratch.
func NewTimestamps(g *Digraph, stream, pos []int32, width int, s *Scratch) *Timestamps {
	defer telemetry.Default().StartSpan("graph.timestamps").End()
	n := g.N()
	if len(stream) != n || len(pos) != n {
		panic(fmt.Sprintf("graph: NewTimestamps: %d nodes but %d streams / %d positions",
			n, len(stream), len(pos)))
	}
	scc := StronglyConnectedOverlay(g, nil, s)
	k := scc.NumComponents()
	t := &Timestamps{
		scc:    scc,
		stream: append([]int32(nil), stream...),
		pos:    append([]int32(nil), pos...),
		width:  width,
		fw:     make([]uint32, k*width),
		bw:     make([]int32, k*width),
		strLen: make([]int32, width),
	}
	for u := 0; u < n; u++ {
		if l := pos[u] + 1; l > t.strLen[stream[u]] {
			t.strLen[stream[u]] = l
		}
	}
	comp := scc.Comp
	// Forward pass, descending component ids. Tarjan assigns a component
	// its id only after every component it reaches, so edges cross from
	// higher ids to lower ids and descending order visits each component
	// after all of its predecessors have pushed their clocks into it:
	// fold the members' own epochs, then push the finished row along
	// every outgoing cross-component edge.
	for c := k - 1; c >= 0; c-- {
		row := t.fw[c*width : (c+1)*width]
		for _, u := range scc.Members[c] {
			if e := uint32(pos[u]) + 1; e > row[stream[u]] {
				row[stream[u]] = e
			}
		}
		for _, u := range scc.Members[c] {
			for _, v := range g.adj[u] {
				if cv := comp[v]; cv != c {
					dst := t.fw[cv*width : (cv+1)*width]
					for i, x := range row {
						if x > dst[i] {
							dst[i] = x
						}
					}
				}
			}
		}
	}
	// Backward pass, ascending component ids (successors are final before
	// any predecessor reads them): pull the successors' frontiers, then
	// fold the members' own positions.
	for c := 0; c < k; c++ {
		row := t.bw[c*width : (c+1)*width]
		copy(row, t.strLen)
		for _, u := range scc.Members[c] {
			for _, v := range g.adj[u] {
				if cv := comp[v]; cv != c {
					src := t.bw[cv*width : (cv+1)*width]
					for i, x := range src {
						if x < row[i] {
							row[i] = x
						}
					}
				}
			}
		}
		for _, u := range scc.Members[c] {
			if pos[u] < row[stream[u]] {
				row[stream[u]] = pos[u]
			}
		}
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.vc.builds").Inc()
		reg.Counter("graph.vc.nodes").Add(int64(n))
		reg.Counter("graph.vc.components").Add(int64(k))
		reg.Counter("graph.vc.clock_words").Add(int64(2 * k * width))
	}
	return t
}

// SCC returns the component structure computed for the graph.
func (t *Timestamps) SCC() *SCC { return t.scc }

// Width returns the clock width (number of streams).
func (t *Timestamps) Width() int { return t.width }

// VCOf returns node v's forward vector clock — the clock of its
// component, aliasing the shared slab; callers must not mutate it.
func (t *Timestamps) VCOf(v int) vclock.VC {
	c := t.scc.Comp[v]
	return vclock.VC(t.fw[c*t.width : (c+1)*t.width])
}

// EpochOf returns node u's epoch: position pos(u)+1 on stream(u). A
// clock covers the epoch exactly when its node is reached from u.
func (t *Timestamps) EpochOf(u int) vclock.Epoch {
	return vclock.Epoch{P: int(t.stream[u]), C: uint32(t.pos[u]) + 1}
}

// Reaches reports whether there is a (possibly empty) path from u to v.
// Reaches(u, u) is always true. The compare is vclock.OrderedFast: the
// O(1) epoch check decides, with the full clock scan as the oracle slow
// path.
func (t *Timestamps) Reaches(u, v int) bool {
	if u == v {
		return true
	}
	return vclock.OrderedFast(t.EpochOf(u), t.VCOf(u), t.VCOf(v))
}

// ReachesProper reports whether there is a non-trivial path from u to v:
// u≠v on a path, or u on a cycle when u == v.
func (t *Timestamps) ReachesProper(u, v int) bool {
	if u == v {
		return len(t.scc.Members[t.scc.Comp[u]]) > 1
	}
	return t.Reaches(u, v)
}

// Ordered reports whether u and v are ordered either way — the negation
// of the paper's "not ordered by the hb1 relation" race test.
func (t *Timestamps) Ordered(u, v int) bool {
	return t.Reaches(u, v) || t.Reaches(v, u)
}

// Window brackets event u against stream p in two slab reads: events of
// p at positions < predCount reach u, and events at positions ≥ succPos
// are reached from u. Program order makes both sets a prefix and a
// suffix respectively, and both bounds are monotone non-decreasing as u
// advances along its own stream — the invariants the detector's
// two-pointer sweep and the provenance certificates rest on. predCount
// and succPos both lie in [0, stream length]; the window may be empty
// (predCount ≥ succPos happens on hb1 cycles and for u's own stream).
func (t *Timestamps) Window(u, p int) (predCount, succPos int32) {
	c := t.scc.Comp[u]
	return int32(t.fw[c*t.width+p]), t.bw[c*t.width+p]
}
