// Package trace implements the instrumentation layer of the paper (§4.1).
//
// A trace records exactly the three things the paper's instrumentation
// produces, and nothing else:
//
//  1. the execution order of events issued by the same processor,
//  2. the relative execution order of synchronization events involving the
//     same location (plus, for acquires, which synchronization write
//     supplied the value — the pairing of Definition 2.1), and
//  3. the READ and WRITE sets of each computation event, as sorted
//     location lists (Locs).
//
// An event is either a single synchronization operation (a synchronization
// event) or a maximal group of consecutively executed data operations (a
// computation event). The values read and written by data operations are
// deliberately NOT part of a trace: the detector must work from access
// sets alone, exactly as the paper prescribes.
//
// A Trace is flat: one processor-major slab of pointer-free 40-byte
// events, so an event's slab index is its global id (core.EventID), plus
// two parallel per-trace columns holding every computation event's
// locations and their PCs. Traces are produced from a simulator
// execution (FromExecution — the "trusted instrumentation", valid by
// construction), decoded from the binary or text codec or a file set, or
// assembled with a Builder; the decoders and the file-set reader build
// through Builder, which validates once. Every Trace is therefore valid,
// and internal/core consumes it post-mortem without re-checking.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
)

// EventKind distinguishes computation events from synchronization events.
type EventKind uint8

const (
	// Comp is a computation event: consecutive data operations.
	Comp EventKind = iota
	// Sync is a synchronization event: one synchronization operation.
	Sync
)

// String names the kind.
func (k EventKind) String() string {
	if k == Sync {
		return "sync"
	}
	return "comp"
}

// EventRef names an event by processor and position in that processor's
// event stream.
type EventRef struct {
	CPU   int
	Index int
}

// NoEvent is the zero EventRef used when a reference is absent.
var NoEvent = EventRef{CPU: -1, Index: -1}

// Valid reports whether the reference points at an event.
func (r EventRef) Valid() bool { return r.CPU >= 0 }

// String renders the reference as Pc.e.
func (r EventRef) String() string { return string(r.AppendTo(nil)) }

// AppendTo appends the reference as String renders it.
func (r EventRef) AppendTo(b []byte) []byte {
	if !r.Valid() {
		return append(b, '-')
	}
	b = append(b, 'P')
	b = strconv.AppendInt(b, int64(r.CPU+1), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(r.Index), 10)
}

// LocPC is one access's location and program counter: the form a
// computation event's accesses take on their way into a Builder.
type LocPC struct {
	Loc program.Addr
	PC  int
}

// sortPCs puts p in location order and keeps one entry per location:
// the first when keepFirst is set, else the last, as repeated
// assignments to a map would. It returns the deduplicated prefix.
func sortPCs(p []LocPC, keepFirst bool) []LocPC {
	sorted := true
	for i := 1; i < len(p) && sorted; i++ {
		sorted = p[i-1].Loc < p[i].Loc
	}
	if sorted {
		return p
	}
	slices.SortStableFunc(p, func(a, b LocPC) int { return cmp.Compare(a.Loc, b.Loc) })
	out := p[:0]
	for _, e := range p {
		if n := len(out); n > 0 && out[n-1].Loc == e.Loc {
			if !keepFirst {
				out[n-1] = e
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// Locs is a set of locations: a sorted list without duplicates, nil when
// empty. It is the only form a set of locations takes, from a
// computation event's READ and WRITE sets to a race's conflicting
// locations. §4.1 suggests bit-vectors; a list costs words in its size,
// where a bit-vector costs words up to its largest location.
type Locs []program.Addr

// Contains reports whether loc is in the set.
func (s Locs) Contains(loc program.Addr) bool {
	_, ok := slices.BinarySearch(s, loc)
	return ok
}

// String renders the set as {a, b, c} for debugging and reports.
func (s Locs) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the set as String renders it.
func (s Locs) AppendTo(b []byte) []byte {
	b = append(b, '{')
	for i, loc := range s {
		if i > 0 {
			b = append(b, ',', ' ')
		}
		b = strconv.AppendInt(b, int64(loc), 10)
	}
	return append(b, '}')
}

// Event is one event of a trace as its Trace holds it: 40 bytes and no
// pointers, so a trace's events are one slab the garbage collector never
// scans. A computation event's READ and WRITE sets live in the trace's
// location column — reads at [at, at+nr), writes right after them — with
// each location's PC at the same offset of the PC column; read them
// through Trace.Reads, Writes, ReadPCs and WritePCs. A synchronization
// event names its paired write by global event index. Events are values:
// nothing a caller does to one changes its trace.
type Event struct {
	kind         EventKind
	role         memmodel.Role
	observedRole memmodel.Role
	// observed is a synchronization event's paired write (global index),
	// -1 when none. While a Builder holds the event, a pending reference
	// is packedRef with the reference in nr and nw, or an index into the
	// builder's references that do not pack.
	observed int32
	nr, nw   uint32 // computation: read and write set sizes
	seq      int    // synchronization: SyncSeq; -1 for computation
	at       int    // synchronization: location; computation: column offset
	pc       int    // synchronization: program counter
}

// Kind reports whether the event is a computation or a synchronization
// event.
func (e Event) Kind() EventKind { return e.kind }

// Role is a synchronization event's classification: acquire, release,
// or sync-other (a Test&Set's write half); RoleData for a computation
// event.
func (e Event) Role() memmodel.Role { return e.role }

// Loc is a synchronization event's location; 0 for a computation event.
func (e Event) Loc() program.Addr {
	if e.kind != Sync {
		return 0
	}
	return program.Addr(e.at)
}

// SyncSeq is a synchronization event's position in the global order of
// synchronization operations on its location; -1 for a computation
// event.
func (e Event) SyncSeq() int { return e.seq }

// PC is a synchronization event's program counter; 0 for a computation
// event, whose PCs are per location (Trace.ReadPCs, Trace.WritePCs).
func (e Event) PC() int { return e.pc }

// Observed is the global index of the synchronization write whose value
// this acquire returned, when the value came from a synchronization
// write; -1 otherwise (data write or initial value). Pairing policy is
// applied at detection time, using ObservedRole.
func (e Event) Observed() int { return int(e.observed) }

// ObservedRole is the role of the observed synchronization write.
func (e Event) ObservedRole() memmodel.Role { return e.observedRole }

// IsWriteSync reports whether a sync event writes its location.
func (e Event) IsWriteSync() bool {
	return e.kind == Sync && (e.role == memmodel.RoleRelease || e.role == memmodel.RoleSyncOther)
}

// IsReadSync reports whether a sync event reads its location.
func (e Event) IsReadSync() bool {
	return e.kind == Sync && e.role == memmodel.RoleAcquire
}

// Header is a trace's description: the program and run it records, and
// the processor and location counts its events were validated against.
type Header struct {
	ProgramName  string
	Model        memmodel.Model
	Seed         int64
	NumCPUs      int
	NumLocations int
}

// Trace is a complete post-mortem trace of one execution: every event
// in one processor-major slab — processor 0's stream in execution order,
// then processor 1's, ... — so an event's slab index is its global id.
// Only the decoders, the file-set reader, Builder and FromExecutionInto
// make a Trace, and all of them hand out valid traces only: Builder and
// the decoders validate once, FromExecutionInto is valid by
// construction. The header is exported for reading: a NumCPUs edited
// after the trace is made fails CheckHeader, so Analyze refuses it.
type Trace struct {
	Header
	events []Event
	start  []int          // start[c]: processor c's first event; start[NumCPUs] = len(events)
	locs   []program.Addr // location column of the computation events' access sets
	pcs    []int          // PC column, parallel to locs
}

// NumEvents returns the total number of events.
func (t *Trace) NumEvents() int { return len(t.events) }

// Stream returns the global index range [from, to) of processor c's
// events.
func (t *Trace) Stream(c int) (from, to int) { return t.start[c], t.start[c+1] }

// Starts returns every processor's first global index, in processor
// order: one entry per stream. The slice aliases the trace: do not
// modify it.
func (t *Trace) Starts() []int { return t.start[:len(t.start)-1] }

// CheckHeader reports a NumCPUs that no longer matches the trace's
// stream count, as after a caller edits the header of a trace already
// made. It takes O(1); core.Analyze runs it, and Validate runs it first.
// The other header fields only describe the trace: nothing in the
// analysis reads them.
func (t *Trace) CheckHeader() error {
	if t.NumCPUs != len(t.start)-1 {
		return fmt.Errorf("trace: NumCPUs=%d but %d streams", t.NumCPUs, len(t.start)-1)
	}
	return nil
}

// Event returns the event with global index i.
func (t *Trace) Event(i int) Event { return t.events[i] }

// Ref returns the processor and stream position of the event with
// global index i.
func (t *Trace) Ref(i int) EventRef {
	c := sort.SearchInts(t.start[1:], i+1)
	return EventRef{CPU: c, Index: i - t.start[c]}
}

// index returns the global index of the event ref names, -1 when it
// names none.
func (t *Trace) index(ref EventRef) int {
	if ref.CPU < 0 || ref.CPU >= len(t.start)-1 || ref.Index < 0 || ref.Index >= t.start[ref.CPU+1]-t.start[ref.CPU] {
		return -1
	}
	return t.start[ref.CPU] + ref.Index
}

// Reads returns computation event i's READ set; nil for a
// synchronization event. The set aliases the trace: do not modify it.
func (t *Trace) Reads(i int) Locs {
	ev := &t.events[i]
	if ev.kind != Comp || ev.nr == 0 {
		return nil
	}
	end := ev.at + int(ev.nr)
	return t.locs[ev.at:end:end]
}

// Writes returns computation event i's WRITE set, like Reads.
func (t *Trace) Writes(i int) Locs {
	ev := &t.events[i]
	if ev.kind != Comp || ev.nw == 0 {
		return nil
	}
	from := ev.at + int(ev.nr)
	end := from + int(ev.nw)
	return t.locs[from:end:end]
}

// ReadPCs returns the PC provenance of computation event i's reads:
// entry k is the program counter of the first data operation in the
// event that read Reads(i)[k]. Pure provenance for race reports; the
// detector never consults it. It aliases the trace like Reads.
func (t *Trace) ReadPCs(i int) []int {
	ev := &t.events[i]
	if ev.kind != Comp || ev.nr == 0 {
		return nil
	}
	end := ev.at + int(ev.nr)
	return t.pcs[ev.at:end:end]
}

// WritePCs returns the PC provenance of computation event i's writes,
// like ReadPCs.
func (t *Trace) WritePCs(i int) []int {
	ev := &t.events[i]
	if ev.kind != Comp || ev.nw == 0 {
		return nil
	}
	from := ev.at + int(ev.nr)
	end := from + int(ev.nw)
	return t.pcs[from:end:end]
}

// EventString renders event i compactly.
func (t *Trace) EventString(i int) string {
	ev := t.events[i]
	if ev.kind == Sync {
		s := fmt.Sprintf("sync %s loc=%d seq=%d pc=%d", ev.role, ev.at, ev.seq, ev.pc)
		if ev.observed >= 0 {
			s += fmt.Sprintf(" paired=%s", t.Ref(int(ev.observed)))
		}
		return s
	}
	return fmt.Sprintf("comp reads=%s writes=%s", t.Reads(i), t.Writes(i))
}

// Arena holds the slabs FromExecutionInto builds a Trace in — the event
// slab, the stream starts, the location and PC columns — plus its
// scratch: the open computation event's accesses, the sync-write index
// and the pending pairings. A caller that builds traces in a loop (a
// campaign worker iterating over seeds) reuses them instead of
// reallocating per execution. Unlike core.Arena's scratch, the slabs ARE
// retained by the returned Trace: reusing an arena invalidates every
// Trace previously built through it, so an arena must only be recycled
// after its trace (and any Analysis holding it) is dead, and must not be
// shared by concurrent builds.
type Arena struct {
	events     []Event
	start      []int
	locs       []program.Addr
	pcs        []int
	reads      []LocPC // the open computation event's reads
	writes     []LocPC // ... and writes
	writeEvent []int32 // writeEvent[op]: the event of sync write op
	pending    []pendingPair
}

// pendingPair is an acquire event whose observed write FromExecutionInto
// resolves once every sync write has its event.
type pendingPair struct {
	ev    int32 // the acquire's event
	write int   // the op it observed
}

// NewArena returns an empty arena. Slabs grow to the working-set size
// on first use and are reused afterwards.
func NewArena() *Arena { return &Arena{} }

// grow returns buf resliced to n, reallocating only when capacity is
// short. The contents are NOT zeroed — every caller overwrites fully.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FromExecution instruments an execution: it groups each processor's
// consecutive data operations into computation events, emits one
// synchronization event per synchronization operation, and resolves
// acquire pairing references.
func FromExecution(e *sim.Execution) *Trace {
	return FromExecutionInto(e, nil)
}

// FromExecutionInto is FromExecution building into ar's slabs (see
// Arena); a nil arena allocates freshly, exactly like FromExecution.
// The trace is valid by construction — the simulator numbers each
// location's synchronization operations densely and an acquire observes
// an earlier write on its own location — so it is not validated.
func FromExecutionInto(e *sim.Execution, ar *Arena) *Trace {
	defer telemetry.Default().StartSpan("trace.build").End()
	if ar == nil {
		ar = &Arena{}
	}
	// Counting pass: an op stream determines the event count exactly —
	// one event per sync op plus one per maximal run of data ops — and
	// each data op adds at most one location to the columns, so the op
	// counts size every slab, whatever the location values.
	events, dataOps := 0, 0
	for c := 0; c < e.NumCPUs; c++ {
		inComp := false
		for _, id := range e.PerCPU[c] {
			if e.Ops[id].Kind.IsSync() {
				if inComp {
					events++
					inComp = false
				}
				events++
			} else {
				inComp = true
				dataOps++
			}
		}
		if inComp {
			events++
		}
	}
	t := &Trace{Header: Header{
		ProgramName:  e.ProgramName,
		Model:        e.Model,
		Seed:         e.Seed,
		NumCPUs:      e.NumCPUs,
		NumLocations: e.NumLocations,
	}}
	ar.events = grow(ar.events, events)[:0]
	ar.start = grow(ar.start, e.NumCPUs+1)[:0]
	ar.locs = grow(ar.locs, dataOps)[:0]
	ar.pcs = grow(ar.pcs, dataOps)[:0]
	ar.writeEvent = grow(ar.writeEvent, len(e.Ops))
	ar.pending = ar.pending[:0]
	// flush closes the open computation event, if any: the first PC of
	// each location is its provenance.
	open := false
	flush := func() {
		if !open {
			return
		}
		open = false
		reads, writes := sortPCs(ar.reads, true), sortPCs(ar.writes, true)
		ev := Event{kind: Comp, seq: -1, observed: -1, at: len(ar.locs), nr: uint32(len(reads)), nw: uint32(len(writes))}
		for _, set := range [2][]LocPC{reads, writes} {
			for _, a := range set {
				ar.locs = append(ar.locs, a.Loc)
				ar.pcs = append(ar.pcs, a.PC)
			}
		}
		ar.events = append(ar.events, ev)
	}
	syncN := 0
	for c := 0; c < e.NumCPUs; c++ {
		ar.start = append(ar.start, len(ar.events))
		for _, id := range e.PerCPU[c] {
			op := &e.Ops[id]
			if !op.Kind.IsSync() {
				if !open {
					open = true
					ar.reads, ar.writes = ar.reads[:0], ar.writes[:0]
				}
				if op.Kind.IsRead() {
					ar.reads = append(ar.reads, LocPC{Loc: op.Loc, PC: op.PC})
				} else {
					ar.writes = append(ar.writes, LocPC{Loc: op.Loc, PC: op.PC})
				}
				continue
			}
			flush()
			i := int32(len(ar.events))
			ar.events = append(ar.events, Event{
				kind: Sync, role: op.Kind.Role(), at: int(op.Loc), seq: op.SyncSeq, pc: op.PC, observed: -1,
			})
			syncN++
			if op.Kind.IsWrite() {
				ar.writeEvent[op.ID] = i
			} else if op.Kind == sim.OpAcquireRead && op.ObservedWrite >= 0 {
				ar.pending = append(ar.pending, pendingPair{ev: i, write: op.ObservedWrite})
			}
		}
		flush()
	}
	ar.start = append(ar.start, len(ar.events))
	// Resolve the pairings: an acquire pairs with the write it observed
	// when that write was a synchronization write.
	for _, p := range ar.pending {
		if w := &e.Ops[p.write]; w.Kind.IsSync() && w.Kind.IsWrite() {
			ev := &ar.events[p.ev]
			ev.observed, ev.observedRole = ar.writeEvent[p.write], w.Kind.Role()
		}
	}
	t.events, t.start, t.locs, t.pcs = ar.events, ar.start, ar.locs, ar.pcs
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("trace.builds").Inc()
		reg.Counter("trace.events.comp").Add(int64(events - syncN))
		reg.Counter("trace.events.sync").Add(int64(syncN))
		reg.Counter("trace.ops").Add(int64(len(e.Ops)))
	}
	return t
}
