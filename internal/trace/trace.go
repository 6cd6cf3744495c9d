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
// Traces are produced from a simulator execution (FromExecution — the
// "trusted instrumentation"), serialized with a binary codec, and consumed
// post-mortem by internal/core.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
)

// EventKind distinguishes computation events from synchronization events.
type EventKind int

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

// LocPC is one location's program-counter provenance.
type LocPC struct {
	Loc program.Addr
	PC  int
}

// PCs is a computation event's PC provenance for one access mode: one
// entry per location, sorted by location. An event with no entries holds
// nil.
type PCs []LocPC

// Lookup returns the PC recorded for loc.
func (p PCs) Lookup(loc program.Addr) (pc int, ok bool) {
	i, ok := slices.BinarySearchFunc(p, loc, func(e LocPC, loc program.Addr) int {
		return cmp.Compare(e.Loc, loc)
	})
	if !ok {
		return 0, false
	}
	return p[i].PC, true
}

// sortPCs puts p in location order and keeps one entry per location:
// the first when keepFirst is set, else the last, as repeated
// assignments to a map would. It returns the deduplicated prefix, nil
// when empty.
func sortPCs(p PCs, keepFirst bool) PCs {
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
	if len(out) == 0 {
		return nil
	}
	return out[:len(out):len(out)]
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

// locChunk is how many locations one shared decoder allocation holds.
const locChunk = 4096

// carve returns the next n elements of *chunk's spare capacity, with the
// capacity clipped to n, taking a fresh chunk of max(n, size) elements
// when the spare capacity is short.
func carve[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(n, size))
	}
	from := len(*chunk)
	*chunk = (*chunk)[:from+n]
	return (*chunk)[from : from+n : from+n]
}

// locsOf returns the locations of p, which sortPCs has ordered and
// deduplicated, as a list carved from *chunk.
func locsOf(p PCs, chunk *[]program.Addr) Locs {
	if len(p) == 0 {
		return nil
	}
	l := carve(chunk, len(p), locChunk)
	for i, e := range p {
		l[i] = e.Loc
	}
	return l
}

// Event is one node of a processor's event stream.
type Event struct {
	Kind EventKind

	// Computation events.

	// Reads and Writes are the event's access sets.
	Reads, Writes Locs
	// ReadPC and WritePC record, per location, the program counter of the
	// first data operation in this event that read/wrote it. Pure
	// provenance for race reports; the detector never consults them.
	ReadPC, WritePC PCs

	// Synchronization events.

	// Role is the operation's classification: acquire, release, or
	// sync-other (a Test&Set's write half).
	Role memmodel.Role
	// Loc is the synchronization location.
	Loc program.Addr
	// SyncSeq is the event's position in the global order of
	// synchronization operations on Loc.
	SyncSeq int
	// PC is the issuing instruction's program counter.
	PC int
	// Observed is the synchronization write event whose value this
	// acquire returned, when the value came from a synchronization write;
	// NoEvent otherwise (data write or initial value). Pairing policy is
	// applied at detection time, using ObservedRole.
	Observed EventRef
	// ObservedRole is the role of the observed synchronization write.
	ObservedRole memmodel.Role
}

// IsWriteSync reports whether a sync event writes its location.
func (e *Event) IsWriteSync() bool {
	return e.Kind == Sync && (e.Role == memmodel.RoleRelease || e.Role == memmodel.RoleSyncOther)
}

// IsReadSync reports whether a sync event reads its location.
func (e *Event) IsReadSync() bool {
	return e.Kind == Sync && e.Role == memmodel.RoleAcquire
}

// String renders the event compactly.
func (e *Event) String() string {
	if e.Kind == Sync {
		s := fmt.Sprintf("sync %s loc=%d seq=%d pc=%d", e.Role, e.Loc, e.SyncSeq, e.PC)
		if e.Observed.Valid() {
			s += fmt.Sprintf(" paired=%s", e.Observed)
		}
		return s
	}
	return fmt.Sprintf("comp reads=%s writes=%s", e.Reads, e.Writes)
}

// Trace is a complete post-mortem trace of one execution.
type Trace struct {
	ProgramName  string
	Model        memmodel.Model
	Seed         int64
	NumCPUs      int
	NumLocations int
	// PerCPU[c] is processor c's event stream in execution order.
	PerCPU [][]*Event
}

// NumEvents returns the total number of events.
func (t *Trace) NumEvents() int {
	n := 0
	for _, evs := range t.PerCPU {
		n += len(evs)
	}
	return n
}

// Event returns the event named by ref, or nil if out of range.
func (t *Trace) Event(ref EventRef) *Event {
	if !ref.Valid() || ref.CPU >= len(t.PerCPU) || ref.Index < 0 || ref.Index >= len(t.PerCPU[ref.CPU]) {
		return nil
	}
	return t.PerCPU[ref.CPU][ref.Index]
}

// Arena holds the slabs FromExecutionInto carves a Trace out of — the
// event array, the access-set locations, the PC provenance, the per-CPU
// event-pointer lists, and the pairing-resolution maps — so a caller
// that builds traces in a loop (a campaign worker iterating over seeds)
// reuses them instead of reallocating per execution. Unlike core.Arena's scratch, these slabs
// ARE retained by the returned Trace: reusing an arena invalidates every
// Trace previously built through it, so an arena must only be recycled
// after its trace (and any Analysis holding it) is dead, and must not be
// shared by concurrent builds.
type Arena struct {
	events  []Event
	locs    []program.Addr
	pcs     []LocPC
	refs    []*Event
	counts  []int // perCPUEvents ∥ perCPUSyncs, one buffer
	syncEvs []*Event
	opEvent map[int]EventRef
	opRole  map[int]memmodel.Role
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
func FromExecutionInto(e *sim.Execution, ar *Arena) *Trace {
	defer telemetry.Default().StartSpan("trace.build").End()
	if ar == nil {
		ar = &Arena{}
	}
	t := &Trace{
		ProgramName:  e.ProgramName,
		Model:        e.Model,
		Seed:         e.Seed,
		NumCPUs:      e.NumCPUs,
		NumLocations: e.NumLocations,
		PerCPU:       make([][]*Event, e.NumCPUs),
	}
	// Counting pass: derive every structure's final size from the op
	// streams before building anything, so construction never regrows a
	// slice or rehashes a map. An op stream determines the event count
	// exactly — one event per sync op plus one per maximal run of data ops.
	ar.counts = grow(ar.counts, 2*e.NumCPUs)
	clear(ar.counts)
	perCPUEvents := ar.counts[:e.NumCPUs]
	perCPUSyncs := ar.counts[e.NumCPUs:]
	syncWrites, dataReads, dataWrites := 0, 0, 0
	for c := 0; c < e.NumCPUs; c++ {
		inComp := false
		for _, id := range e.PerCPU[c] {
			op := &e.Ops[id]
			if op.Kind.IsSync() {
				if inComp {
					perCPUEvents[c]++
					inComp = false
				}
				perCPUEvents[c]++
				perCPUSyncs[c]++
				if op.Kind.IsWrite() {
					syncWrites++
				}
			} else {
				inComp = true
				if op.Kind.IsRead() {
					dataReads++
				} else {
					dataWrites++
				}
			}
		}
		if inComp {
			perCPUEvents[c]++
		}
	}

	// opEvent[id] is the event that contains operation id (filled for sync
	// writes; used to resolve acquire pairings in the second pass).
	if ar.opEvent == nil {
		ar.opEvent = make(map[int]EventRef, syncWrites)
		ar.opRole = make(map[int]memmodel.Role, syncWrites)
	} else {
		clear(ar.opEvent)
		clear(ar.opRole)
	}
	opEvent, opRole := ar.opEvent, ar.opRole

	totalEvents := 0
	for c := 0; c < e.NumCPUs; c++ {
		totalEvents += perCPUEvents[c]
	}
	// One Event slab for all processors, one pointer slab carved into the
	// per-CPU streams, one PC slab holding every data op's (location, PC)
	// entry (reads region first, then writes), and one location slab
	// backing every computation event's two access sets. Each data op adds
	// one PC entry and at most one location, so the op counts size every
	// slab, whatever the location values.
	ar.events = grow(ar.events, totalEvents)
	ar.refs = grow(ar.refs, totalEvents)
	ar.pcs = grow(ar.pcs, dataReads+dataWrites)
	ar.locs = grow(ar.locs, dataReads+dataWrites)[:0]
	eventsLeft, refsLeft := ar.events, ar.refs
	readPCs, writePCs := ar.pcs[:0:dataReads], ar.pcs[dataReads:dataReads]
	for c := 0; c < e.NumCPUs; c++ {
		slab := eventsLeft[:perCPUEvents[c]]
		eventsLeft = eventsLeft[perCPUEvents[c]:]
		t.PerCPU[c] = refsLeft[:0:perCPUEvents[c]]
		refsLeft = refsLeft[perCPUEvents[c]:]
		var cur *Event // open computation event, if any
		var readsFrom, writesFrom int
		flush := func() {
			if cur != nil {
				// The first PC of each location is its provenance.
				cur.ReadPC = sortPCs(readPCs[readsFrom:], true)
				cur.WritePC = sortPCs(writePCs[writesFrom:], true)
				cur.Reads = locsOf(cur.ReadPC, &ar.locs)
				cur.Writes = locsOf(cur.WritePC, &ar.locs)
				t.PerCPU[c] = append(t.PerCPU[c], cur)
				cur = nil
			}
		}
		for _, id := range e.PerCPU[c] {
			op := &e.Ops[id]
			if op.Kind.IsSync() {
				flush()
				ev := &slab[len(t.PerCPU[c])]
				*ev = Event{
					Kind:     Sync,
					Role:     op.Kind.Role(),
					Loc:      op.Loc,
					SyncSeq:  op.SyncSeq,
					PC:       op.PC,
					Observed: NoEvent,
				}
				ref := EventRef{CPU: c, Index: len(t.PerCPU[c])}
				t.PerCPU[c] = append(t.PerCPU[c], ev)
				if op.Kind.IsWrite() {
					opEvent[op.ID] = ref
					opRole[op.ID] = op.Kind.Role()
				}
				continue
			}
			if cur == nil {
				cur = &slab[len(t.PerCPU[c])]
				*cur = Event{Kind: Comp, SyncSeq: -1, Observed: NoEvent}
				readsFrom, writesFrom = len(readPCs), len(writePCs)
			}
			if op.Kind.IsRead() {
				readPCs = append(readPCs, LocPC{Loc: op.Loc, PC: op.PC})
			} else {
				writePCs = append(writePCs, LocPC{Loc: op.Loc, PC: op.PC})
			}
		}
		flush()
	}

	// Second pass: resolve acquire pairings from observed write ops. Sync
	// operations map 1:1, in order, onto a processor's sync events.
	for c := 0; c < e.NumCPUs; c++ {
		syncEvents := grow(ar.syncEvs, perCPUSyncs[c])[:0]
		for _, ev := range t.PerCPU[c] {
			if ev.Kind == Sync {
				syncEvents = append(syncEvents, ev)
			}
		}
		ar.syncEvs = syncEvents
		si := 0
		for _, id := range e.PerCPU[c] {
			op := &e.Ops[id]
			if !op.Kind.IsSync() {
				continue
			}
			ev := syncEvents[si]
			si++
			if op.Kind != sim.OpAcquireRead || op.ObservedWrite < 0 {
				continue
			}
			if ref, ok := opEvent[op.ObservedWrite]; ok {
				ev.Observed = ref
				ev.ObservedRole = opRole[op.ObservedWrite]
			}
		}
	}
	if reg := telemetry.Default(); reg.Enabled() {
		comp, syncN := 0, 0
		for _, evs := range t.PerCPU {
			for _, ev := range evs {
				if ev.Kind == Sync {
					syncN++
				} else {
					comp++
				}
			}
		}
		reg.Counter("trace.builds").Inc()
		reg.Counter("trace.events.comp").Add(int64(comp))
		reg.Counter("trace.events.sync").Add(int64(syncN))
		reg.Counter("trace.ops").Add(int64(len(e.Ops)))
	}
	return t
}
