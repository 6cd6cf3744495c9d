// Package provenance is the detector's witness engine: for any reported
// race it produces an explanation object a developer (or a crosscheck
// harness) can audit — the conflicting accesses with their processor,
// segment, and locations; an absence certificate proving the pair is
// hb1-unordered (the nearest hb1 ancestor and descendant of each event
// on the other event's processor, read in O(1) off the analysis's
// vector-clock window — or recovered with O(log n) closure queries when
// the analysis ran with the explicit-closure oracle — never a
// materialized closure); the race's partition and whether it is first;
// and, for non-first partitions, the affected-by chain (Definition 3.3)
// back to a first partition.
//
// The certificate leans on the same monotonicity the race sweep
// exploits: along a processor's event stream, the events that
// happen-before-1 a fixed event x form a PREFIX (y ⇝ x and y′ po-before
// y imply y′ ⇝ x), and the events x happens-before-1 form a SUFFIX.
// So "the last event of P that reaches x" and "the first event of P
// that x reaches" bracket an interval, and any event of P strictly
// inside it is unordered with x. A certificate is therefore four
// indices, checkable against an explicit transitive closure in O(1)
// per boundary — which is exactly what the crosscheck harness does.
package provenance

import (
	"fmt"

	"weakrace/internal/core"
	"weakrace/internal/trace"
)

// Side describes one racing event.
type Side struct {
	// Event is the dense event id in the analysis.
	Event int `json:"event"`
	// Ref is the human-readable reference ("P2.3").
	Ref string `json:"ref"`
	// CPU and Index locate the event (0-based CPU, segment index in its
	// processor's stream).
	CPU   int `json:"cpu"`
	Index int `json:"index"`
	// Kind is "comp" or "sync"; Desc is the event's compact rendering.
	Kind string `json:"kind"`
	Desc string `json:"desc"`
}

// Boundary is one half of the unorderedness certificate: the bracket
// that event X's hb1 cone cuts out of the OTHER event's processor
// stream. LastPred is the index of the last event on that stream that
// happens-before-1 X (-1 when none), FirstSucc the index of the first
// event X happens-before-1 (stream length when none). By program-order
// monotonicity every index ≤ LastPred reaches X and every index ≥
// FirstSucc is reached by X, so Partner strictly inside
// (LastPred, FirstSucc) proves X and the partner event are unordered.
type Boundary struct {
	CPU       int    `json:"cpu"`
	LastPred  int    `json:"last_pred"`
	PredRef   string `json:"pred_ref"`
	FirstSucc int    `json:"first_succ"`
	SuccRef   string `json:"succ_ref"`
	Partner   int    `json:"partner"`
}

// Certificate is the two-sided absence proof: A bracketed against B's
// stream and B against A's. Either half alone proves unorderedness; the
// pair makes the certificate symmetric and doubly checkable.
type Certificate struct {
	A Boundary `json:"a_on_b_cpu"`
	B Boundary `json:"b_on_a_cpu"`
}

// Witness is the complete explanation of one reported race.
type Witness struct {
	// Race indexes Analysis.Races.
	Race int  `json:"race"`
	A    Side `json:"a"`
	B    Side `json:"b"`
	// Locations lists the conflicting locations.
	Locations []int `json:"locations"`
	// Data reports whether this is a data race: always true, since only
	// data races are stored and explained.
	Data bool `json:"data"`
	// LowerLevel lists the operation-granularity candidates (§2.1).
	LowerLevel []string `json:"lower_level"`
	// Certificate proves hb1-unorderedness.
	Certificate Certificate `json:"certificate"`
	// Partition indexes Analysis.Partitions; First mirrors the
	// partition's flag (Definition 4.1).
	Partition int  `json:"partition"`
	First     bool `json:"first"`
	// Chain, for non-first partitions, is a shortest affected-by chain
	// of partition indices from a first partition to this one, each hop
	// an immediate edge of the partition order P (Definition 3.3 lifted
	// to partitions). Empty for first partitions.
	Chain []int `json:"chain,omitempty"`
}

// Explainer answers witness queries against one analysis. Building one
// computes the immediate partition-precedence DAG (partitions are few);
// certificates are computed lazily per race with O(log n) reachability
// queries.
type Explainer struct {
	a *core.Analysis
	// succ/pred are the immediate edges of the partition order P: an
	// edge i→j means i precedes j with no partition strictly between.
	succ, pred [][]int
}

// NewExplainer prepares an explainer for the analysis.
func NewExplainer(a *core.Analysis) *Explainer {
	n := len(a.Partitions)
	e := &Explainer{a: a, succ: make([][]int, n), pred: make([][]int, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !a.PartitionPrecedes(i, j) {
				continue
			}
			direct := true
			for k := 0; k < n && direct; k++ {
				if k != i && k != j && a.PartitionPrecedes(i, k) && a.PartitionPrecedes(k, j) {
					direct = false
				}
			}
			if direct {
				e.succ[i] = append(e.succ[i], j)
				e.pred[j] = append(e.pred[j], i)
			}
		}
	}
	return e
}

// Analysis returns the analysis the explainer reads.
func (e *Explainer) Analysis() *core.Analysis { return e.a }

// ImmediateSuccessors returns the immediate partition-precedence DAG:
// out[i] lists the partitions immediately after partition i in the
// order P. The slice is owned by the explainer.
func (e *Explainer) ImmediateSuccessors() [][]int { return e.succ }

// Explain produces the witness for data race ri (an index into
// Analysis.Races).
func (e *Explainer) Explain(ri int) (*Witness, error) {
	a := e.a
	if ri < 0 || ri >= len(a.Races) {
		return nil, fmt.Errorf("provenance: race index %d out of range [0,%d)", ri, len(a.Races))
	}
	r := a.Races[ri]
	pi := a.RaceOfPartition(ri)
	if pi < 0 {
		return nil, fmt.Errorf("provenance: race %d has no partition", ri)
	}
	w := &Witness{
		Race:      ri,
		A:         e.side(r.A),
		B:         e.side(r.B),
		Data:      true,
		Partition: pi,
		First:     a.Partitions[pi].First,
	}
	r.Locs.Range(func(loc int) bool {
		w.Locations = append(w.Locations, loc)
		return true
	})
	for _, ll := range a.LowerLevel(r) {
		w.LowerLevel = append(w.LowerLevel, ll.String())
	}
	w.Certificate = Certificate{
		A: e.boundary(r.A, w.B.CPU, w.B.Index),
		B: e.boundary(r.B, w.A.CPU, w.A.Index),
	}
	if !w.First {
		w.Chain = e.chainToFirst(pi)
	}
	return w, nil
}

// All returns witnesses for every data race, in race order.
func (e *Explainer) All() ([]*Witness, error) {
	ws := make([]*Witness, 0, len(e.a.Races))
	for ri := range e.a.Races {
		w, err := e.Explain(ri)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func (e *Explainer) side(id core.EventID) Side {
	ref := e.a.Ref(id)
	ev := e.a.Trace.Event(ref)
	return Side{
		Event: int(id),
		Ref:   ref.String(),
		CPU:   ref.CPU,
		Index: ref.Index,
		Kind:  ev.Kind.String(),
		Desc:  ev.String(),
	}
}

// boundary brackets event x against processor cpu's stream via the
// analysis's HBWindow — two slab reads off x's vector clock. partnerIdx
// is the other racing
// event's index on that stream; for a genuine race it lies strictly
// inside the bracket (the crosscheck harness asserts this against the
// explicit closure).
func (e *Explainer) boundary(x core.EventID, cpu, partnerIdx int) Boundary {
	a := e.a
	n := len(a.Trace.PerCPU[cpu])
	lastPred, firstSucc := a.HBWindow(x, cpu)
	b := Boundary{CPU: cpu, LastPred: lastPred, FirstSucc: firstSucc, Partner: partnerIdx}
	b.PredRef, b.SuccRef = "-", "-"
	if lastPred >= 0 {
		b.PredRef = trace.EventRef{CPU: cpu, Index: lastPred}.String()
	}
	if firstSucc < n {
		b.SuccRef = trace.EventRef{CPU: cpu, Index: firstSucc}.String()
	}
	return b
}

// chainToFirst returns a shortest immediate-precedence chain from some
// first partition down to pi, ending at pi. BFS backward over immediate
// predecessors; predecessor lists are in ascending partition order, so
// the chain is deterministic.
func (e *Explainer) chainToFirst(pi int) []int {
	prev := make([]int, len(e.a.Partitions))
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	prev[pi] = -1
	queue := []int{pi}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if e.a.Partitions[cur].First {
			chain := []int{}
			for p := cur; p != pi; p = prev[p] {
				chain = append(chain, p)
			}
			chain = append(chain, pi)
			return chain
		}
		for _, q := range e.pred[cur] {
			if prev[q] == -2 {
				prev[q] = cur
				queue = append(queue, q)
			}
		}
	}
	// Unreachable for a well-formed analysis: every non-first partition
	// is preceded by a first one (the order P is a finite partial order).
	return []int{pi}
}
