package graph

import (
	"weakrace/internal/telemetry"
	"weakrace/internal/vclock"
)

// Timestamps answers reachability queries on a Streams graph — one
// whose nodes are partitioned into program-order chains, with at most
// one cross edge into each node — with vector-clock timestamps instead
// of bitset closure rows. This is the shape of the detector's
// happens-before-1 graph (po chains plus one so1 edge per acquire).
//
// The forward clock of node x is
//
//	fw[x][p] = 1 + max{ pos(y) : y in stream p, y reaches x }
//
// (0 when no p-node reaches x). Program order makes "reaches x" a PREFIX
// of each stream, so that single per-stream maximum characterizes the
// entire ancestor cone exactly. Hence
//
//	u reaches v  ⟺  u == v  or  fw[v][stream(u)] > pos(u),
//
// an O(1) epoch compare (vclock.Epoch.Covered). The mirrored backward
// frontier bw[x][p] is the least position of stream p reached from x,
// so Window brackets a whole stream against a node with two slab reads
// — the quantity the race sweep and the provenance certificates
// consume directly.
//
// The clocks come from one k-way merge over the streams, the
// single-pass vector-clock timestamping of Kini, Mathur and Viswanathan
// lifted to the post-mortem graph: a stream's head is clocked once its
// cross predecessor is, as the join of its program-order predecessor's
// clock and its cross predecessor's, plus its own epoch. The backward pass
// walks the merge order in reverse, pushing each finished frontier into
// the node's two possible predecessors. Each pass touches every clock
// row once and every edge once — O((nodes + edges) × streams) — with no
// successor lists and no SCC pass.
//
// hb1 may contain cycles on a weak execution (paper §3.1), and there the
// merge stalls: no head's predecessor is ever clocked. Only then do the
// clocks fall back to one row per strongly connected component, whose
// members share it (every member reaches every other), assigned in
// Tarjan order. One pass over the nodes folds their own epochs and
// positions into their rows. Components are numbered in reverse
// topological order, so one descending-id pass then pushes each finished
// forward clock along the condensation edges the same Tarjan pass
// collected, and one ascending-id pass pulls the successors' backward
// frontiers.
type Timestamps struct {
	stream []int32 // stream[u]: the stream (processor) of node u
	pos    []int32 // pos[u]: u's position within its stream
	width  int
	// scc is hb1's component structure when the merge stalled on a
	// cycle, and the clock rows are per component; nil when the graph is
	// acyclic and every node has its own row.
	scc *SCC
	fw  []uint32 // forward clocks, rows x width
	bw  []int32  // backward frontiers, rows x width
}

// NewTimestamps computes vector-clock timestamps for s. The result keeps
// s's stream and position tables, so a Reset of s through the same Slabs
// invalidates it. sc (optional) supplies the merge and, on a cycle, the
// Tarjan scratch. keep (optional) supplies the clock slabs the result
// holds (see Slabs); nil allocates them afresh.
func NewTimestamps(s *Streams, sc *Scratch, keep *Slabs) *Timestamps {
	defer telemetry.Default().StartSpan("graph.timestamps").End()
	if sc == nil {
		sc = &Scratch{}
	}
	if keep == nil {
		keep = &Slabs{}
	}
	n, width := s.N(), s.Width()
	t := &Timestamps{
		stream: s.stream,
		pos:    s.pos,
		width:  width,
		fw:     reuse(&keep.fw, n*width),
		bw:     reuse(&keep.bw, n*width),
	}
	order, head := reuse(&sc.order, n), reuse(&sc.head, width)
	// strLen[p], the length of stream p, is the backward frontiers'
	// "reaches nothing of p" value.
	strLen := reuse(&sc.strLen, width)
	for p := range strLen {
		strLen[p] = s.start[p+1] - s.start[p]
	}
	stalled := !t.merge(s, order, head)
	if stalled {
		t.fold(s, sc, strLen)
	} else {
		t.frontiers(s, order, strLen)
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("graph.vc.builds").Inc()
		reg.Counter("graph.vc.nodes").Add(int64(n))
		reg.Counter("graph.vc.components").Add(int64(t.NumComponents()))
		reg.Counter("graph.vc.clock_words").Add(int64(len(t.fw) + len(t.bw)))
		if stalled {
			reg.Counter("graph.vc.stalls").Inc()
		}
	}
	return t
}

// merge clocks the nodes of s stream by stream, recording the order, and
// reports whether every node was clocked. A stream's head is clocked
// once its cross predecessor r is — r's position lies below its own
// stream's head — so each sweep over the streams advances every stream
// as far as it can; a sweep that advances none is a stall, which only a
// cycle causes.
func (t *Timestamps) merge(s *Streams, order, head []int32) bool {
	w := t.width
	clear(head)
	done := 0
	for progress := true; progress; {
		progress = false
		for p := 0; p < w; p++ {
			first, end := s.start[p], s.start[p+1]
			for u := first + head[p]; u < end; u++ {
				r := s.rel[u]
				if r >= 0 && s.pos[r] >= head[s.stream[r]] {
					break
				}
				row := t.fw[int(u)*w : int(u+1)*w]
				if u > first {
					copy(row, t.fw[int(u-1)*w:int(u)*w])
				} else {
					clear(row)
				}
				if r >= 0 {
					for i, x := range t.fw[int(r)*w : int(r+1)*w] {
						row[i] = max(row[i], x)
					}
				}
				row[p] = uint32(u-first) + 1
				order[done] = u
				done++
				head[p]++
				progress = true
			}
		}
	}
	return done == len(order)
}

// frontiers fills the backward frontiers of an acyclic s by walking the
// merge order in reverse: every successor of u (u+1, and the nodes whose
// cross predecessor u is) was clocked after u, so u's frontier is final
// when the walk reaches it, and is then pushed into u's predecessors.
func (t *Timestamps) frontiers(s *Streams, order, strLen []int32) {
	w := t.width
	for u := 0; u < len(order); u++ {
		copy(t.bw[u*w:(u+1)*w], strLen)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := int(order[i])
		row := t.bw[u*w : (u+1)*w]
		row[s.stream[u]] = s.pos[u]
		if s.pos[u] > 0 {
			meet(t.bw[(u-1)*w:u*w], row)
		}
		if r := int(s.rel[u]); r >= 0 {
			meet(t.bw[r*w:(r+1)*w], row)
		}
	}
}

// meet lowers dst to the elementwise minimum of dst and src.
func meet(dst, src []int32) {
	for i, x := range src[:len(dst)] {
		dst[i] = min(dst[i], x)
	}
}

// fold assigns the clocks per strongly connected component — the
// fallback for an hb1 cycle, where the merge stalls. The slabs shrink to
// one row per component.
func (t *Timestamps) fold(s *Streams, sc *Scratch, strLen []int32) {
	// The clocks' component structure is allocated afresh, so keep's SCC
	// slabs stay free for the caller's own SCC of the graph (the
	// detector's G′).
	scc := s.SCC(nil, sc, nil)
	t.scc = scc
	k, width := scc.NumComponents(), t.width
	t.fw, t.bw = t.fw[:k*width], t.bw[:k*width]
	clear(t.fw)
	for c := 0; c < k; c++ {
		copy(t.bw[c*width:(c+1)*width], strLen)
	}
	// One pass over the nodes folds each node's epoch and position into
	// its component's row.
	for u, c := range scc.Comp {
		i := int(c)*width + int(s.stream[u])
		t.fw[i] = max(t.fw[i], uint32(s.pos[u])+1)
		t.bw[i] = min(t.bw[i], s.pos[u])
	}
	// Condensation edges run from higher ids to lower ones. Visiting the
	// components in descending id, each forward clock is final — every
	// predecessor has pushed into it — before it is pushed along the
	// component's own edges; visiting them in ascending id, each
	// successor's backward frontier is final before a predecessor pulls
	// it.
	for c := k - 1; c >= 0; c-- {
		row := t.fw[c*width : (c+1)*width]
		for _, d := range scc.Succ(c) {
			dst := t.fw[int(d)*width : int(d+1)*width]
			for i, x := range row {
				dst[i] = max(dst[i], x)
			}
		}
	}
	for c := 0; c < k; c++ {
		row := t.bw[c*width : (c+1)*width]
		for _, d := range scc.Succ(c) {
			meet(row, t.bw[int(d)*width:int(d+1)*width])
		}
	}
}

// NumComponents returns the number of clock rows: the number of nodes
// when the graph is acyclic, else the number of its strongly connected
// components.
func (t *Timestamps) NumComponents() int { return len(t.fw) / max(t.width, 1) }

// row returns the clock row of node u.
func (t *Timestamps) row(u int) int {
	if t.scc != nil {
		return int(t.scc.Comp[u])
	}
	return u
}

// Width returns the clock width (number of streams).
func (t *Timestamps) Width() int { return t.width }

// VCOf returns node v's forward vector clock — the clock of its row,
// aliasing the shared slab; callers must not mutate it.
func (t *Timestamps) VCOf(v int) vclock.VC {
	c := t.row(v)
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

// Window brackets event u against stream p in two slab reads: events of
// p at positions < predCount reach u, and events at positions ≥ succPos
// are reached from u. Program order makes both sets a prefix and a
// suffix respectively, and both bounds are monotone non-decreasing as u
// advances along its own stream — the invariants the detector's
// two-pointer sweep and the provenance certificates rest on. predCount
// and succPos both lie in [0, stream length]; the window may be empty
// (predCount ≥ succPos happens on hb1 cycles and for u's own stream).
func (t *Timestamps) Window(u, p int) (predCount, succPos int32) {
	c := t.row(u)
	return int32(t.fw[c*t.width+p]), t.bw[c*t.width+p]
}
