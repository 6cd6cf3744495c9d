// Package core implements the paper's contribution: post-mortem dynamic
// data race detection from an execution trace, valid on weak memory
// systems that satisfy Condition 3.4.
//
// Given a trace (per-processor event streams with synchronization pairing
// and READ/WRITE access sets — internal/trace), the detector:
//
//  1. builds the happens-before-1 graph: one node per event, edges for
//     program order (po) and paired release→acquire synchronization order
//     (so1); hb1 = (po ∪ so1)+ (Definitions 2.2–2.3). hb1 is held flat —
//     po is position + 1 and so1 one release per acquire — and
//     timestamped with vector clocks by one merge over the processors;
//  2. finds the higher-level races: conflicting events not ordered by hb1
//     (Definition 2.4 lifted to events, §4.1) — remembering that hb1 may
//     contain cycles in a weak execution, so reachability runs on the SCC
//     condensation;
//  3. builds the augmented graph G′ by adding a doubly-directed edge
//     between the two events of every race, so that a path A ⇝ C in G′
//     captures "race 〈A,B〉 affects race 〈C,D〉" (Definition 3.3, §4.2);
//  4. partitions the data races by the strongly connected components of G′
//     and orders partitions by reachability (Definition 4.1);
//  5. reports the FIRST partitions: those not preceded by any other
//     partition containing a data race. By Theorem 4.1 there are no first
//     partitions iff the execution was race-free (hence sequentially
//     consistent, by Condition 3.4(1)); by Theorem 4.2 every first
//     partition contains at least one race that also occurs in a
//     sequentially consistent execution of the program.
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"weakrace/internal/bitset"
	"weakrace/internal/graph"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

// EventID is a dense global index over all events of a trace
// (processor-major: all of P1's events, then P2's, ...).
type EventID int32

// Options configures an analysis.
type Options struct {
	// Pairing selects which synchronization writes count as releases when
	// constructing so1. The default, ConservativePairing, is the paper's
	// classification (a Test&Set's write never pairs). LiberalPairing is
	// sound on WO/DRF0-style hardware and yields fewer races.
	Pairing memmodel.PairingPolicy
	// SkipValidate skips trace validation (for traces already validated,
	// e.g. straight from the decoder, on hot benchmark paths).
	SkipValidate bool
	// Workers is ignored: every pass of an analysis runs on the calling
	// goroutine. It remains only so existing callers keep compiling.
	Workers int
	// Arena, when non-nil, supplies reusable per-Analyze scratch buffers
	// (race records, SCC stacks, the G′ partner table). A campaign hands one
	// arena per in-flight seed down so repeated analyses stop re-allocating
	// the same megabyte-scale buffers. An Arena must not be shared by
	// concurrent Analyze calls.
	Arena *Arena
	// Flight, when non-nil, attaches a flight recorder: Analyze records
	// the trace's events, hb1 edges tagged by origin (po/so1), the G′
	// race-partner edges, the detection phases as a timeline, and the
	// races and partitions found (see internal/telemetry/export). Nil —
	// the default — records nothing and costs one pointer check per
	// phase; the gate mirrors telemetry's atomic Enabled discipline.
	Flight *export.Recorder
}

// Arena holds the per-Analyze scratch buffers that are NOT retained by
// the returned Analysis: the so1 index and flat hb1, the flat
// race-record buffers of the sweep, the G′ partner table, the partition
// grouping table, and the graph layer's merge, Tarjan and condensation
// scratch. Zero value is ready to use; see Options.Arena.
type Arena struct {
	rel []int32       // rel[event]: its so1 release, −1 when none
	hb  graph.Streams // hb1 over rel: po chains plus so1 successor lists
	// partners is G′'s partner table: events × CPUs, the po-minimal race
	// partner of each event on each CPU, −1 when none.
	partners []int32
	recs     []pairRec // the scan's data-side (pair, location) records
	// parts holds the scan's G′ partner-minimum candidates, which
	// buildImplicitAug folds into partners.
	parts   []partRec
	segs    []locSeg    // prep pass: per-location CPU segments
	segOff  []int32     // sorted-location offsets into segs (len(locs)+1)
	units   []sweepUnit // (location, segment-pair) units the scan walks
	digits  []int32     // radix sort's counting buffer
	recsTmp []pairRec   // radix sort's ping-pong buffer
	// locSlot interns locations into stable accLists slots, so repeated
	// analyses through one arena reuse the per-location access buffers
	// instead of rebuilding a map of freshly grown slices every time.
	locSlot  map[int]int32
	accLists [][]access
	slotLoc  []int32       // slot → location value (inverse of locSlot)
	canon    []*bitset.Set // slot → current analysis's canonical {loc} set
	locsBuf  []int         // locations the current analysis accesses
	// partSlot maps a G′ component to 1 + the index of its partition
	// while partition groups the races, 0 for a component without one.
	partSlot []int32
	scratch  graph.Scratch
}

// NewArena returns an empty arena. Buffers grow to the working-set size
// of the analyses run through it and are then reused.
func NewArena() *Arena { return &Arena{} }

// arenaPool backs Analyze calls that did not supply an Options.Arena, so
// every caller gets scratch reuse across analyses; an explicit arena
// still wins (deterministic per-worker reuse, e.g. one per in-flight
// campaign seed).
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// Race is a higher-level data race between two events (§4.1): A and B
// access a common location that at least one writes, no hb1 path connects
// them, and at least one of them is a computation event (all of whose
// accesses are data operations). A race between two synchronization
// events is a synchronization race: it is never reported and never
// stored (see Analysis.SyncRaces), but it still contributes edges to G′.
type Race struct {
	// A and B are the racing events, A < B.
	A, B EventID
	// Locs is the set of locations on which A and B conflict.
	Locs *bitset.Set
}

// Partition is a set of data races whose events share one strongly
// connected component of the augmented graph G′ (§4.2).
type Partition struct {
	// Component is the SCC id in the augmented graph.
	Component int
	// Races indexes Analysis.Races, listing this partition's data races.
	Races []int
	// Events lists the distinct events involved, sorted.
	Events []EventID
	// First reports whether no other partition containing a data race
	// precedes this one in the partial order P (Definition 4.1): the
	// partition is one the detector reports to the programmer.
	First bool
}

// Analysis is the complete result of a post-mortem detection run.
type Analysis struct {
	// Trace is the input trace.
	Trace *trace.Trace
	// Options echoes the options used.
	Options Options

	// NumEvents is the number of events (hb1 graph nodes).
	NumEvents int

	// HBTime is the hb1 vector-clock timestamp layer: one merge over the
	// processors' streams assigns every event a forward clock and a
	// backward frontier, making ordering queries O(1) epoch compares and
	// giving the race sweep and the provenance certificates their per-CPU
	// interval boundaries directly. HBReaches/HBOrdered/HBWindow wrap it
	// in event ids. hb1 itself is held flat (graph.Streams): the clocks
	// and G′'s Tarjan read po as position + 1 and so1 from the trace's
	// pairing.
	HBTime *graph.Timestamps
	// AugSCC is the component structure of the augmented graph G′ — the
	// partitions of §4.2. G′ is never materialized: the SCCs come from a
	// Tarjan run over hb1 plus per-CPU-minimal race partners (see
	// buildImplicitAug).
	AugSCC *graph.SCC

	// Races lists the data races, sorted by (A, B).
	Races []Race
	// SyncRaces counts the synchronization races: conflicting,
	// hb1-unordered pairs of two synchronization events. §4.2 needs them
	// only as G′ edges, so they are counted, not stored; the race total
	// the report prints is len(Races)+SyncRaces.
	SyncRaces int
	// DataRaces is the identity index into Races (DataRaces[i] == i),
	// kept for callers written when Races also held synchronization
	// races; new code ranges over Races directly.
	DataRaces []int
	// Partitions lists the partitions containing at least one data race,
	// in a deterministic order (by smallest event id).
	Partitions []Partition
	// FirstPartitions indexes Partitions, listing the first partitions —
	// the detector's report.
	FirstPartitions []int

	base []int // base[c] = EventID of processor c's first event

	augCond         *graph.CondReach // partition-order oracle over G′'s condensation
	augEdges        int64            // G′ partner entries (per-CPU-minimal)
	candidatePairs  int64            // conflicting pairs in the sweep's segment pairs
	sweepBuckets    int64            // (location, segment-pair) units the scan walked
	vcWindowQueries int64            // sweep boundary lookups answered by HBTime
	// pairShift is the bit width of this trace's event ids: packed pair
	// keys are lo<<pairShift | hi, so they span only 2·⌈log₂ n⌉ bits and
	// the radix sort runs the fewest counting passes the ids allow.
	// Packing tightly (instead of a fixed <<32) preserves the (lo, hi)
	// lexicographic order the coalesce and the report depend on.
	pairShift uint
}

// ID returns the EventID for an event reference.
func (a *Analysis) ID(ref trace.EventRef) EventID {
	return EventID(a.base[ref.CPU] + ref.Index)
}

// Ref returns the event reference for an EventID.
func (a *Analysis) Ref(id EventID) trace.EventRef {
	c := sort.Search(len(a.base), func(i int) bool { return a.base[i] > int(id) }) - 1
	return trace.EventRef{CPU: c, Index: int(id) - a.base[c]}
}

// Event returns the trace event with the given id.
func (a *Analysis) Event(id EventID) *trace.Event {
	return a.Trace.Event(a.Ref(id))
}

// RaceFree reports whether the execution exhibited no data races. On
// hardware satisfying Condition 3.4(1) this certifies that the execution
// was sequentially consistent.
func (a *Analysis) RaceFree() bool { return len(a.Races) == 0 }

// HBReaches reports u ⇝ v in hb1 (reflexively: HBReaches(u, u) is true).
// The crosscheck harness pins the timestamps behind it to the test-only
// transitive closure of internal/oracle on every pair.
func (a *Analysis) HBReaches(u, v EventID) bool {
	return a.HBTime.Reaches(int(u), int(v))
}

// HBOrdered reports whether u and v are hb1-ordered either way — the
// negation of the paper's race condition "not ordered by hb1".
func (a *Analysis) HBOrdered(u, v EventID) bool {
	return a.HBReaches(u, v) || a.HBReaches(v, u)
}

// HBWindow brackets event x against processor cpu's stream: lastPred is
// the index of the last event of that stream that happens-before-1 x
// (-1 when none), firstSucc the index of the first event x
// happens-before-1 (the stream length when none). Program order makes
// the reaching events a prefix and the reached events a suffix, so
// events strictly inside (lastPred, firstSucc) are exactly the ones
// unordered with x — the absence certificate provenance emits. Both
// bounds are two slab reads off x's clocks.
func (a *Analysis) HBWindow(x EventID, cpu int) (lastPred, firstSucc int) {
	predCount, succPos := a.HBTime.Window(int(x), cpu)
	return int(predCount) - 1, int(succPos)
}

// MaxClockCells caps an analysis's events × CPUs. The hb1 clocks hold
// two 4-byte cells per (event, CPU), forward and backward, and G′'s
// partner table a third, so the cap bounds those slabs at
// 3 × 4 B × 2^26 = 768 MiB. A trace past it is refused with a
// *LimitError before anything is allocated: a decoded trace of 65,536
// CPUs with one event each is under 0.5 MB, but its clocks alone would
// take 34 GB.
const MaxClockCells = 1 << 26

// LimitError reports a trace whose events × CPUs exceeds MaxClockCells.
type LimitError struct {
	Events, CPUs int
	Cells, Cap   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("core: %d events × %d CPUs = %d clock cells, over the cap of %d",
		e.Events, e.CPUs, e.Cells, e.Cap)
}

// Analyze runs the full post-mortem detection pipeline on a trace.
func Analyze(t *trace.Trace, opts Options) (*Analysis, error) {
	n := 0
	for _, evs := range t.PerCPU {
		n += len(evs)
	}
	if cells := int64(n) * int64(t.NumCPUs); cells > MaxClockCells {
		return nil, &LimitError{Events: n, CPUs: t.NumCPUs, Cells: cells, Cap: MaxClockCells}
	}
	reg := telemetry.Default()
	fl := newFlight(opts.Flight)
	defer startPhase(reg, fl, "detect.analyze")()
	if !opts.SkipValidate {
		done := startPhase(reg, fl, "detect.validate")
		err := t.Validate()
		done()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	a := &Analysis{Trace: t, Options: opts}
	if a.Options.Arena == nil {
		ar := arenaPool.Get().(*Arena)
		a.Options.Arena = ar
		defer func() {
			a.Options.Arena = opts.Arena // don't leak the pooled arena to the caller
			arenaPool.Put(ar)
		}()
	}

	a.number()
	done := startPhase(reg, fl, "detect.build_hb")
	a.buildSO1()
	done()
	// One merge over the streams timestamps hb1 — O(events × CPUs) total,
	// no closure rows, and the sweep's interval boundaries fall out of
	// the clocks for free.
	done = startPhase(reg, fl, "detect.hb_reach")
	ar := a.Options.Arena
	a.HBTime = graph.NewTimestamps(&ar.hb, &ar.scratch)
	done()
	done = startPhase(reg, fl, "detect.find_races")
	a.findRaces(reg, fl)
	done()
	done = startPhase(reg, fl, "detect.augment")
	a.buildImplicitAug()
	done()
	done = startPhase(reg, fl, "detect.partition")
	a.partition(reg, fl)
	done()
	a.flushTelemetry(reg)
	if fl != nil {
		fl.record(a)
	}
	return a, nil
}

// number assigns the dense, processor-major event ids.
func (a *Analysis) number() {
	a.base = make([]int, a.Trace.NumCPUs)
	n := 0
	for c, evs := range a.Trace.PerCPU {
		a.base[c] = n
		n += len(evs)
	}
	a.NumEvents = n
}

// flushTelemetry batches the analysis's structural counters into the
// registry — the event/edge/race/SCC scaling numbers every perf PR
// reports against.
func (a *Analysis) flushTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Counter("detect.analyses").Inc()
	reg.Counter("detect.events").Add(int64(a.NumEvents))
	reg.Counter("detect.hb_edges").Add(int64(a.Options.Arena.hb.M()))
	// detect.aug_edges counts the augmentation work actually represented:
	// per-node race-partner entries (at most racy-nodes × (CPUs−1), since
	// partners collapse to the po-minimal event per CPU). detect.races
	// counts data and synchronization races alike.
	reg.Counter("detect.aug_edges").Add(a.augEdges)
	reg.Counter("detect.races").Add(int64(len(a.Races) + a.SyncRaces))
	reg.Counter("detect.data_races").Add(int64(len(a.Races)))
	reg.Counter("detect.partitions").Add(int64(len(a.Partitions)))
	reg.Counter("detect.first_partitions").Add(int64(len(a.FirstPartitions)))
	reg.Counter("detect.race_candidates").Add(a.candidatePairs)
	// detect.sweep.buckets counts the (location, segment-pair) units the
	// scan walked; the arena gauge is the high-water mark of the record
	// buffer across the analyses run through one arena.
	reg.Counter("detect.sweep.buckets").Add(a.sweepBuckets)
	reg.Gauge("detect.arena.recs_highwater").SetMax(int64(cap(a.Options.Arena.recs)))
	// detect.vc_* is the timestamp layer's footprint: its component/clock
	// sizes and the sweep boundary lookups it answered.
	// detect.vc_hb_fastpath_hits (the G′ queries the hb1 clock settles
	// before any condensation DFS) is incremented live at the query site
	// instead: Definition-3.3 queries arrive through the Affects API after
	// the analysis — and its flush — have finished.
	reg.Counter("detect.vc_builds").Inc()
	reg.Counter("detect.vc_components").Add(int64(a.HBTime.NumComponents()))
	reg.Gauge("detect.vc_width").SetMax(int64(a.HBTime.Width()))
	reg.Counter("detect.vc_window_queries").Add(a.vcWindowQueries)
	reg.Counter("detect.scc.components").Add(int64(a.AugSCC.NumComponents()))
	// detect.scc.max_size is the largest SCC of the AUGMENTED graph G′
	// per analysis — the partition-structure view. The graph layer's
	// graph.scc.max_size gauge instead tracks the largest SCC across
	// every SCC computation (hb1 and augmented, explicit or implicit).
	// Both reuse the size Tarjan tracked while closing components;
	// nothing rescans Members.
	reg.Gauge("detect.scc.max_size").SetMax(int64(a.AugSCC.MaxSize()))
}

// pairs reports whether an event is an acquire whose pairing the policy
// admits — the events that contribute so1 edges to hb1.
func (a *Analysis) pairs(ev *trace.Event) bool {
	return ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire &&
		ev.Observed.Valid() && a.Options.Pairing.CanPair(ev.ObservedRole)
}

// buildSO1 builds the so1 index — rel[e], the release whose pairing
// the policy admits for acquire e (Definition 2.2), −1 for every other
// event — and over it the flat hb1 the clocks and G′'s Tarjan read.
func (a *Analysis) buildSO1() {
	ar := a.Options.Arena
	n := a.NumEvents
	if cap(ar.rel) < n {
		ar.rel = make([]int32, n)
	}
	rel := ar.rel[:n]
	for c, evs := range a.Trace.PerCPU {
		base := a.base[c]
		for i, ev := range evs {
			rel[base+i] = -1
			if a.pairs(ev) {
				rel[base+i] = int32(a.ID(ev.Observed))
			}
		}
	}
	ar.hb.Reset(a.base, rel)
}

// HB1 returns the happens-before-1 graph of t under the pairing policy,
// po ∪ so1, in the flat form Analyze timestamps and runs G′'s Tarjan
// over. Its successor lists fix G′'s component ids. t must be valid.
func HB1(t *trace.Trace, pairing memmodel.PairingPolicy) *graph.Streams {
	a := &Analysis{Trace: t, Options: Options{Pairing: pairing, Arena: &Arena{}}}
	a.number()
	a.buildSO1()
	return &a.Options.Arena.hb
}

// access is one (event, location) access used during race detection.
// The prep pass fills the jump indices and prefix counts: next* is the
// location-list index of the first access at or after this one in its
// segment with the named property (the segment end when there is none),
// so a window walk hops from one wanted partner to the next without
// visiting the rest; syncs and syncWrites count the segment's
// synchronization accesses and synchronization writes before this one.
type access struct {
	ev                                 EventID
	cpu                                int32
	write, sync                        bool
	nextWrite, nextComp, nextCompWrite int32
	syncs, syncWrites                  int32
}

// locSeg is one contiguous same-CPU run of a location's access list.
// Accesses are collected processor-major, so a location has at most one
// segment per CPU, po-ascending within.
type locSeg struct {
	start, end        int32 // accs[start:end]
	writes            int32 // write accesses within
	syncs, syncWrites int32 // synchronization accesses / writes within
}

// sweepUnit is one unit of sweep work: a (location, segment-pair)
// combination with conflict potential — a CPU pair, since segments are
// per-CPU. Units are enumerated in a fixed (location, si, ti) order.
type sweepUnit struct {
	li     int32 // index into the sorted locations
	si, ti int32 // segment pair within the location, si < ti
}

// partRec proposes v as u's po-minimal G′ partner on v's CPU: the first
// access of one unit's window that conflicts with u. buildImplicitAug
// keeps the minimum per (u, CPU) across units and locations.
type partRec struct{ u, v EventID }

// findRaces detects all races — conflicting, hb1-unordered event pairs —
// and stores only the data races; synchronization races are counted.
//
// The search is a sweep over CPU-bucketed accesses: accesses are
// collected processor-major, so each location's slice is made of
// contiguous same-CPU segments (one per processor, po-ascending within),
// and pairing a segment only against later segments skips same-processor
// pairs (always po-ordered) wholesale.
//
// Against one later segment T, an access x needs no per-pair ordering
// tests: program order makes ordering monotone along T, so the events of
// T that reach x form a PREFIX of T (y⇝x implies y′⇝y⇝x for every
// earlier y′), the events x reaches form a SUFFIX (x⇝y implies x⇝y′ for
// every later y′), and the hb1-unordered partners of x are exactly the
// interval [p,q) between them. Both boundaries are monotone
// non-decreasing as x advances through its own segment (later x is
// reached by more of T and reaches less of it), so one two-pointer pass
// spends O(|S|+|T|) amortized boundary work per segment pair. The
// boundaries come from HBTime.Window — two slab reads per x.
//
// Each unit's work grows with its accesses plus its data races, not with
// its synchronization races (see scanUnit): only pairs with a computation
// side become records; sync–sync pairs are counted from prefix counts;
// and each access's po-minimal G′ partner on the other CPU is read off
// the first conflicting access of its window. The weak executions this
// detector targets produce hundreds of sync races per data race from
// contending spin loops, and §4.2 needs none of them beyond those
// minima.
//
// A prep pass enumerates segments and (location, segment-pair) units;
// the scan walks the units into the arena's record and partner buffers;
// the records are sorted by pair and the sorted runs are coalesced into
// races.
func (a *Analysis) findRaces(reg *telemetry.Registry, fl *flight) {
	// Keyed by location, sparse: traces legitimately declare large address
	// spaces while touching few locations, and the analyzer must not
	// allocate proportionally to the declared size (robustness against
	// decoded input). The arena interns each location into a stable slot
	// whose access buffer survives across analyses — a campaign's repeated
	// traces stop re-growing hundreds of per-location slices.
	ar := a.Options.Arena
	donePrep := startPhase(reg, fl, "detect.sweep.prep")
	if ar.locSlot == nil {
		ar.locSlot = map[int]int32{}
	}
	for _, loc := range ar.locsBuf {
		ar.accLists[ar.locSlot[loc]] = ar.accLists[ar.locSlot[loc]][:0]
	}
	ar.locsBuf = ar.locsBuf[:0]
	addAccess := func(loc int, acc access) {
		slot, ok := ar.locSlot[loc]
		if !ok {
			slot = int32(len(ar.accLists))
			ar.locSlot[loc] = slot
			ar.accLists = append(ar.accLists, nil)
			ar.slotLoc = append(ar.slotLoc, int32(loc))
		}
		if len(ar.accLists[slot]) == 0 {
			ar.locsBuf = append(ar.locsBuf, loc)
		}
		ar.accLists[slot] = append(ar.accLists[slot], acc)
	}
	for c, evs := range a.Trace.PerCPU {
		for i, ev := range evs {
			id := EventID(a.base[c] + i)
			switch ev.Kind {
			case trace.Comp:
				// A location both read and written contributes a single
				// write access (the write subsumes the read for conflict
				// purposes).
				ev.Writes.Range(func(loc int) bool {
					addAccess(loc, access{ev: id, cpu: int32(c), write: true})
					return true
				})
				ev.Reads.Range(func(loc int) bool {
					if !ev.Writes.Contains(loc) {
						addAccess(loc, access{ev: id, cpu: int32(c), write: false})
					}
					return true
				})
			case trace.Sync:
				addAccess(int(ev.Loc), access{
					ev: id, cpu: int32(c), write: ev.IsWriteSync(), sync: true,
				})
			}
		}
	}

	locs := ar.locsBuf
	slices.Sort(locs)

	// Segment and unit enumeration: one pass over every sorted location
	// records its per-CPU segments, fills each access's jump indices and
	// prefix counts, and emits one sweepUnit per segment pair with
	// conflict potential.
	segs, segOff, units := ar.segs[:0], ar.segOff[:0], ar.units[:0]
	segOff = append(segOff, 0)
	for li, loc := range locs {
		accs := ar.accLists[ar.locSlot[loc]]
		first := int32(len(segs))
		for s := int32(0); s < int32(len(accs)); {
			e := s + 1
			for e < int32(len(accs)) && accs[e].cpu == accs[s].cpu {
				e++
			}
			seg := locSeg{start: s, end: e}
			for i := s; i < e; i++ {
				x := &accs[i]
				x.syncs, x.syncWrites = seg.syncs, seg.syncWrites
				if x.write {
					seg.writes++
				}
				if x.sync {
					seg.syncs++
					if x.write {
						seg.syncWrites++
					}
				}
			}
			nw, nc, ncw := e, e, e
			for i := e - 1; i >= s; i-- {
				x := &accs[i]
				if x.write {
					nw = i
				}
				if !x.sync {
					nc = i
					if x.write {
						ncw = i
					}
				}
				x.nextWrite, x.nextComp, x.nextCompWrite = nw, nc, ncw
			}
			segs = append(segs, seg)
			s = e
		}
		nls := int32(len(segs)) - first
		for si := int32(0); si < nls; si++ {
			for ti := si + 1; ti < nls; ti++ {
				if segs[first+si].writes == 0 && segs[first+ti].writes == 0 {
					continue // read-only × read-only: no conflicts at all
				}
				units = append(units, sweepUnit{li: int32(li), si: si, ti: ti})
			}
		}
		segOff = append(segOff, int32(len(segs)))
	}
	ar.segs, ar.segOff, ar.units = segs, segOff, units
	a.sweepBuckets = int64(len(units))
	donePrep()

	// Scan: every unit appends into the arena's buffers — no maps, no
	// per-race allocations — and the grown buffers stay in the arena for
	// the next analysis through it.
	doneScan := startPhase(reg, fl, "detect.sweep.scan")
	a.pairShift = uint(bits.Len(uint(a.NumEvents)))
	ar.recs, ar.parts = ar.recs[:0], ar.parts[:0]
	for _, un := range units {
		slot := ar.locSlot[locs[un.li]]
		base := segOff[un.li]
		a.scanUnit(ar.accLists[slot], slot, segs[base+un.si], segs[base+un.ti])
	}
	doneScan()

	// Sort by packed pair key; the records are dead after the coalesce
	// below, so both sort buffers return to the arena.
	doneMerge := startPhase(reg, fl, "detect.sweep.merge")
	recs := sortRecsByKey(ar.recs, ar)
	doneMerge()

	// Canonical singleton location sets, one per distinct location: races
	// nearly always involve exactly one location. Each (pair, location)
	// combination occurs at most once in recs, so a run of length one IS
	// a single-location race — it shares the interned {loc} set instead
	// of carrying a private set and backing words. Location sets are
	// owned by the Analysis and must be treated as read-only — races on
	// the same location alias one set.
	doneCoalesce := startPhase(reg, fl, "detect.sweep.coalesce")
	if cap(ar.canon) < len(ar.accLists) {
		ar.canon = make([]*bitset.Set, len(ar.accLists))
	}
	ar.canon = ar.canon[:len(ar.accLists)]
	canonSets := make([]bitset.Set, len(locs))
	canonWords := 0
	for _, loc := range locs {
		canonWords += loc/64 + 1
	}
	canonSlab := make([]uint64, canonWords)
	for i, loc := range locs {
		w := loc/64 + 1
		canonSets[i] = *bitset.Wrap(canonSlab[:w:w])
		canonSets[i].Add(loc)
		ar.canon[ar.locSlot[loc]] = &canonSets[i]
		canonSlab = canonSlab[w:]
	}

	// Coalesce sorted runs into races. Packed keys order exactly like the
	// (A, B) lexicographic order the report promises; within a run the
	// record order is irrelevant — location-set insertion is commutative,
	// so the sort need not be stable. len(recs) bounds the race count tightly (each record is
	// a distinct (pair, location) and nearly every pair has one location),
	// so Races is allocated once at that bound and truncated — no
	// counting pre-pass rescanning the records.
	races := make([]Race, len(recs))
	ri := 0
	for i := 0; i < len(recs); ri++ {
		j := i + 1
		for j < len(recs) && recs[j].key == recs[i].key {
			j++
		}
		a.fillRace(&races[ri], recs[i:j])
		i = j
	}
	a.Races = races[:ri:ri]
	if len(a.Races) > 0 {
		a.DataRaces = make([]int, len(a.Races))
		for i := range a.DataRaces {
			a.DataRaces[i] = i
		}
	}
	doneCoalesce()
}

// scanUnit sweeps one (location, segment-pair) unit. The forward walk
// takes S's accesses against T and, for each x with a non-empty window
// [p,q):
//
//   - proposes x's po-minimal G′ partner on T's CPU: the first access of
//     the window that conflicts with x — accs[p] when x writes, else the
//     first write at or after p;
//   - when x is a synchronization access, counts its sync races from the
//     prefix counts: the window's sync accesses (x writes) or sync
//     writes (x reads). A sync event has one location, so each sync pair
//     is counted in exactly one unit;
//   - records the pairs with a computation side, hopping along the jump
//     index that lists exactly x's data-race partners (all accesses for
//     a computation write, writes for a computation read, computation
//     accesses for a sync write, computation writes for a sync read).
//
// The backward walk takes T's accesses against S for the partner minima
// of T's side. The work is O(|S|+|T|) plus one step per data record.
func (a *Analysis) scanUnit(accs []access, slot int32, S, T locSeg) {
	ar := a.Options.Arena
	// Conflicting pairs in S×T = all pairs minus read-read pairs, counted
	// wholesale.
	sn, tn := S.end-S.start, T.end-T.start
	a.candidatePairs += int64(sn*tn - (sn-S.writes)*(tn-T.writes))
	shift := a.pairShift
	p, q := T.start, T.start
	for xi := S.start; xi < S.end; xi++ {
		x := accs[xi]
		p, q = a.window(accs, x.ev, T, p, q)
		if p == q {
			continue
		}
		a.proposePartner(accs, x, p, q)
		if x.sync {
			ns, nw := T.syncs, T.syncWrites
			if q < T.end {
				ns, nw = accs[q].syncs, accs[q].syncWrites
			}
			if x.write {
				a.SyncRaces += int(ns - accs[p].syncs)
			} else {
				a.SyncRaces += int(nw - accs[p].syncWrites)
			}
		}
		for y := p; y < q; y++ {
			switch {
			case x.sync && x.write:
				y = accs[y].nextComp
			case x.sync:
				y = accs[y].nextCompWrite
			case !x.write:
				y = accs[y].nextWrite
			}
			if y >= q {
				break
			}
			lo, hi := x.ev, accs[y].ev
			if lo > hi {
				lo, hi = hi, lo
			}
			ar.recs = append(ar.recs, pairRec{key: uint64(lo)<<shift | uint64(hi), slot: slot})
		}
	}
	p, q = S.start, S.start
	for yi := T.start; yi < T.end; yi++ {
		p, q = a.window(accs, accs[yi].ev, S, p, q)
		if p < q {
			a.proposePartner(accs, accs[yi], p, q)
		}
	}
}

// window advances x's hb1-unordered interval [p,q) of segment T: p past
// T's prefix that reaches x, q past the events x does not reach. Both
// only move forward while x advances along its own segment. On an hb1
// cycle the prefix and the reached suffix can overlap; the clamp
// q = max(q,p) then leaves the interval empty. HBTime.Window gives the
// exact prefix count and suffix start of T's whole stream, and event ids
// are base+pos within a CPU, so the pointers advance by threshold
// compares.
func (a *Analysis) window(accs []access, x EventID, T locSeg, p, q int32) (int32, int32) {
	tcpu := int(accs[T.start].cpu)
	predCount, succPos := a.HBTime.Window(int(x), tcpu)
	a.vcWindowQueries++
	tbase := EventID(a.base[tcpu])
	for p < T.end && accs[p].ev-tbase < EventID(predCount) {
		p++
	}
	q = max(q, p)
	for q < T.end && accs[q].ev-tbase < EventID(succPos) {
		q++
	}
	return p, q
}

// proposePartner records the first access of the non-empty window [p,q)
// that conflicts with x as x's partner candidate on that segment's CPU.
func (a *Analysis) proposePartner(accs []access, x access, p, q int32) {
	m := p
	if !x.write {
		m = accs[p].nextWrite
	}
	if m < q {
		ar := a.Options.Arena
		ar.parts = append(ar.parts, partRec{u: x.ev, v: accs[m].ev})
	}
}

// fillRace materializes one sorted equal-key run of sweep records as a
// Race: unpack the pair, share the canonical {loc} set for the dominant
// single-location case, build a private set otherwise.
func (a *Analysis) fillRace(r *Race, run []pairRec) {
	ar := a.Options.Arena
	shift := a.pairShift
	r.A = EventID(run[0].key >> shift)
	r.B = EventID(run[0].key & (1<<shift - 1))
	if len(run) == 1 {
		r.Locs = ar.canon[run[0].slot]
		return
	}
	maxLoc := ar.slotLoc[run[0].slot]
	for _, rec := range run[1:] {
		if l := ar.slotLoc[rec.slot]; l > maxLoc {
			maxLoc = l
		}
	}
	r.Locs = bitset.Wrap(make([]uint64, int(maxLoc)/64+1))
	for _, rec := range run {
		r.Locs.Add(int(ar.slotLoc[rec.slot]))
	}
}

// sortRecsByKey sorts the sweep's records by packed pair key — the only
// order the coalesce needs — with an LSD radix sort over 11-bit digits.
// Digits that are zero in every key are skipped wholesale: event ids are
// dense, so a trace with n events uses only ~2·log₂(n) key bits and the
// usual record sort is two or three counting passes, not a comparison
// sort of 16-byte structs. Ping-pong and counting buffers come from the
// arena. The returned slice aliases either recs or the arena's buffer.
// (The sort is not stable; the coalesce folds equal-key runs
// commutatively.)
func sortRecsByKey(recs []pairRec, ar *Arena) []pairRec {
	const digitBits = 11
	const radix = 1 << digitBits
	if len(recs) < 2*radix {
		// Counting passes would be dominated by sweeping the count
		// array; a comparison sort wins on small traces.
		slices.SortFunc(recs, func(x, y pairRec) int { return cmp.Compare(x.key, y.key) })
		return recs
	}
	var orKeys uint64
	for i := range recs {
		orKeys |= recs[i].key
	}
	if cap(ar.recsTmp) < len(recs) {
		ar.recsTmp = make([]pairRec, len(recs))
	}
	src, dst := recs, ar.recsTmp[:len(recs)]
	if cap(ar.digits) < radix {
		ar.digits = make([]int32, radix)
	}
	count := ar.digits[:radix]
	for shift := 0; shift < 64; shift += digitBits {
		if (orKeys>>shift)&(radix-1) == 0 {
			continue // this digit is zero in every key: identity pass
		}
		for d := range count {
			count[d] = 0
		}
		for i := range src {
			count[(src[i].key>>shift)&(radix-1)]++
		}
		sum := int32(0)
		for d := range count {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := (src[i].key >> shift) & (radix - 1)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// pairRec is one (conflicting unordered pair, location) observation with
// a computation side — the flat intermediate the scan produces and the
// merge sorts and coalesces into data races.
type pairRec struct {
	key  uint64 // packed (A, B)
	slot int32  // interned location slot
}

// buildImplicitAug computes the partition structure of the augmented
// graph G′ without materializing G′: Tarjan runs over hb1 plus the
// partner table, where partners[u][c] keeps only u's po-MINIMAL race
// partner on CPU c — data or synchronization race alike.
//
// Collapsing the race edges this way preserves G′'s transitive closure
// exactly. A dropped edge u→v (v racing u on CPU d) is simulated by the
// kept edge u→m — m the minimal partner of u on d, so m ≤ v — followed
// by the program-order chain m⇝v inside d's event stream; the reverse
// edge v→u is simulated symmetrically through v's minimal partner on u's
// CPU. Kept edges are a subset of the dropped set's closure, so the two
// closures — and with them the SCCs (as node sets), the condensation
// reachability, the partitions, and the first-partition flags of
// Theorems 4.1/4.2 — coincide with explicit G′'s.
//
// The minima come straight from the sweep (scanUnit proposes one
// candidate per access and unit); this pass keeps the least per (node,
// CPU). Event ids are processor-major, so a row read in CPU order lists
// a node's partners in ascending id order — the order Tarjan's component
// numbering follows — with no per-node sort. Entry count is bounded by
// racy-nodes × (CPUs−1). Partition ordering is answered by memoized
// per-source DFS over the condensation (graph.CondReach), never a full
// closure.
func (a *Analysis) buildImplicitAug() {
	ar := a.Options.Arena
	w := a.Trace.NumCPUs
	cells := a.NumEvents * w
	if cap(ar.partners) < cells {
		ar.partners = make([]int32, cells)
	}
	partners := ar.partners[:cells]
	for i := range partners {
		partners[i] = -1
	}
	var nEntries int64
	for _, pr := range ar.parts {
		v := int32(pr.v)
		cell := &partners[int(pr.u)*w+ar.hb.Stream(int(v))]
		if *cell < 0 {
			nEntries++
			*cell = v
		} else {
			*cell = min(*cell, v)
		}
	}
	ar.partners = partners
	scc := ar.hb.SCC(partners, &ar.scratch)
	a.AugSCC = scc
	a.augCond = graph.NewCondReach(&ar.hb, partners, scc, &ar.scratch)
	a.augEdges = nEntries
}

// vcFastpathHit counts a G′ reachability query settled by the hb1 clock
// pre-check. Incremented live (not at flushTelemetry) because the
// Definition-3.3 queries arrive through the Affects API after Analyze
// has already flushed.
func vcFastpathHit() {
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("detect.vc_hb_fastpath_hits").Inc()
	}
}

// partition groups the data races by the SCCs of G′ and computes the first
// partitions under the partial order P of Definition 4.1. The ordering
// (detect.condreach.order) is the O(k²) "does any other partition reach
// p" loop; each query source's condensation row is built by one memoized
// DFS the first time it is asked (graph.CondReach).
func (a *Analysis) partition(reg *telemetry.Registry, fl *flight) {
	scc, ar := a.AugSCC, a.Options.Arena
	k := scc.NumComponents()
	if cap(ar.partSlot) < k {
		ar.partSlot = make([]int32, k)
	}
	slot := ar.partSlot[:k]
	clear(slot)
	parts := []Partition{} // Partitions is non-nil even without data races
	for ri, r := range a.Races {
		// The doubly-directed race edge puts A and B on a common cycle, so
		// both ends are always in the same component.
		comp := scc.Comp[int(r.A)]
		if slot[comp] == 0 {
			parts = append(parts, Partition{Component: comp})
			slot[comp] = int32(len(parts))
		}
		p := &parts[slot[comp]-1]
		p.Races = append(p.Races, ri)
		p.Events = append(p.Events, r.A, r.B)
	}
	for i := range parts {
		slices.Sort(parts[i].Events)
		parts[i].Events = slices.Compact(parts[i].Events)
	}
	// Components are disjoint, so no two partitions share a smallest event.
	slices.SortFunc(parts, func(p, q Partition) int { return cmp.Compare(p.Events[0], q.Events[0]) })

	// A partition is first iff no OTHER data-race partition reaches it.
	done := startPhase(reg, fl, "detect.condreach.order")
	for i := range parts {
		p := &parts[i]
		p.First = true
		for j, q := range parts {
			if i != j && a.augCond.ComponentReaches(q.Component, p.Component) {
				p.First = false
				break
			}
		}
		if p.First {
			a.FirstPartitions = append(a.FirstPartitions, i)
		}
	}
	done()
	a.Partitions = parts
}

// PartitionPrecedes reports whether partition i precedes partition j in
// the order P: a path exists in G′ from an event of i to an event of j.
func (a *Analysis) PartitionPrecedes(i, j int) bool {
	return a.augCond.ComponentReaches(a.Partitions[i].Component, a.Partitions[j].Component)
}

// LowerLevelRace describes one lower-level (operation-granularity) race
// candidate underlying a higher-level race, reconstructed from the trace's
// program-counter provenance. It identifies operations statically, the way
// the paper identifies them (§2.1): by processor, program point, and
// location.
type LowerLevelRace struct {
	Loc  program.Addr
	X, Y sim.StaticOp
	// XWrites/YWrites report each side's access mode on Loc.
	XWrites, YWrites bool
}

// Canonical returns the race with sides ordered deterministically.
func (l LowerLevelRace) Canonical() LowerLevelRace {
	if l.X.CPU > l.Y.CPU || (l.X.CPU == l.Y.CPU && l.X.PC > l.Y.PC) {
		l.X, l.Y = l.Y, l.X
		l.XWrites, l.YWrites = l.YWrites, l.XWrites
	}
	return l
}

// String renders the lower-level race.
func (l LowerLevelRace) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the lower-level race as String renders it:
// ⟨mode:op, mode:op⟩@loc, with mode R or W.
func (l LowerLevelRace) AppendTo(b []byte) []byte {
	mode := func(w bool) byte {
		if w {
			return 'W'
		}
		return 'R'
	}
	b = append(b, "⟨"...)
	b = append(b, mode(l.XWrites), ':')
	b = l.X.AppendTo(b)
	b = append(b, ',', ' ', mode(l.YWrites), ':')
	b = l.Y.AppendTo(b)
	b = append(b, "⟩@"...)
	return strconv.AppendInt(b, int64(l.Loc), 10)
}

// LowerLevel expands a higher-level race into its lower-level candidates,
// one per conflicting (location, access-mode) combination.
func (a *Analysis) LowerLevel(r Race) []LowerLevelRace {
	return a.AppendLowerLevel(nil, r)
}

// AppendLowerLevel appends LowerLevel(r) to dst, so a caller expanding
// many races can reuse one buffer.
func (a *Analysis) AppendLowerLevel(dst []LowerLevelRace, r Race) []LowerLevelRace {
	evA, evB := a.Event(r.A), a.Event(r.B)
	refA, refB := a.Ref(r.A), a.Ref(r.B)
	r.Locs.Range(func(loc int) bool {
		addr := program.Addr(loc)
		xs, nx := sideAccesses(evA, addr)
		ys, ny := sideAccesses(evB, addr)
		for _, xa := range xs[:nx] {
			for _, ya := range ys[:ny] {
				if !xa.writes && !ya.writes {
					continue
				}
				dst = append(dst, LowerLevelRace{
					Loc:     addr,
					X:       sim.StaticOp{CPU: refA.CPU, PC: xa.pc, Loc: addr},
					Y:       sim.StaticOp{CPU: refB.CPU, PC: ya.pc, Loc: addr},
					XWrites: xa.writes, YWrites: ya.writes,
				}.Canonical())
			}
		}
		return true
	})
	return dst
}

type sideAccess struct {
	pc     int
	writes bool
}

// sideAccesses lists an event's accesses to loc with their PC
// provenance: the first n entries of out, a write before a read.
func sideAccesses(ev *trace.Event, loc program.Addr) (out [2]sideAccess, n int) {
	switch ev.Kind {
	case trace.Comp:
		if ev.Writes.Contains(int(loc)) {
			pc, _ := ev.WritePC.Lookup(loc)
			out[n] = sideAccess{pc: pc, writes: true}
			n++
		}
		if ev.Reads.Contains(int(loc)) {
			pc, _ := ev.ReadPC.Lookup(loc)
			out[n] = sideAccess{pc: pc, writes: false}
			n++
		}
	case trace.Sync:
		if ev.Loc == loc {
			out[n] = sideAccess{pc: ev.PC, writes: ev.IsWriteSync()}
			n++
		}
	}
	return out, n
}
