package trace

import (
	"fmt"
	"math"
	"slices"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
)

// Builder assembles a trace event by event, each processor's stream in
// execution order but the processors in any order, and Build validates
// it once. Both decoders and the file-set reader build through it, so
// every trace they hand out has passed the same checks.
type Builder struct {
	t      Trace
	runs   []run      // arrival order: runs of consecutive events of one processor
	counts []int      // events per processor so far
	refs   []EventRef // pending references that do not pack (see packedRef)
	err    error      // first structural error (processor or event count)
}

// packedRef marks a pending pairing reference a Builder holds in the
// event's nr (processor) and nw (index) fields; a pending reference that
// does not fit them is an index into Builder.refs instead.
const packedRef = -2

// run is a stretch of consecutively added events of one processor.
type run struct{ cpu, n int }

// maxEvents bounds a trace's events: a pairing reference is held as an
// int32 global index, and core numbers events in int32.
const maxEvents = math.MaxInt32

// NewBuilder returns a builder for a trace with header h. The header's
// counts are held to the binary codec's limits: at most 2^16 processors
// and 2^20 locations, so per-location state stays bounded whatever the
// input.
func NewBuilder(h Header) *Builder {
	b := &Builder{t: Trace{Header: h}}
	switch {
	case h.NumCPUs < 0 || h.NumLocations < 0:
		b.err = fmt.Errorf("trace: negative count in header %+v", h)
	case uint64(h.NumCPUs) > cpuCount.limit:
		b.err = &CountError{What: cpuCount.what, Count: uint64(h.NumCPUs), Limit: cpuCount.limit}
	case uint64(h.NumLocations) > locationCount.limit:
		b.err = &CountError{What: locationCount.what, Count: uint64(h.NumLocations), Limit: locationCount.limit}
	default:
		b.counts = make([]int, h.NumCPUs)
	}
	return b
}

// next accounts for one more event of processor cpu and returns its
// reference, or false once the builder has failed.
func (b *Builder) next(cpu int) (EventRef, bool) {
	switch {
	case b.err != nil:
	case cpu < 0 || cpu >= b.t.NumCPUs:
		b.err = fmt.Errorf("trace: processor %d out of range [0,%d)", cpu, b.t.NumCPUs)
	case len(b.t.events) >= maxEvents:
		b.err = &CountError{What: "event", Count: uint64(len(b.t.events)) + 1, Limit: maxEvents}
	default:
		if n := len(b.runs); n > 0 && b.runs[n-1].cpu == cpu {
			b.runs[n-1].n++
		} else {
			b.runs = append(b.runs, run{cpu: cpu, n: 1})
		}
		ref := EventRef{CPU: cpu, Index: b.counts[cpu]}
		b.counts[cpu]++
		return ref, true
	}
	return NoEvent, false
}

// Comp adds a computation event to processor cpu's stream. reads and
// writes are its access sets, each entry a location and the PC of the
// first data operation in the event that accessed it; Build checks that
// each set is strictly ascending and inside the location range.
func (b *Builder) Comp(cpu int, reads, writes []LocPC) EventRef {
	at := len(b.t.locs)
	for _, set := range [2][]LocPC{reads, writes} {
		for _, a := range set {
			b.t.locs = append(b.t.locs, a.Loc)
			b.t.pcs = append(b.t.pcs, a.PC)
		}
	}
	return b.comp(cpu, at, len(reads), len(writes))
}

// comp adds a computation event whose nr reads and nw writes the caller
// has appended to the columns from offset at.
func (b *Builder) comp(cpu, at, nr, nw int) EventRef {
	ref, ok := b.next(cpu)
	if ok {
		b.t.events = append(b.t.events, Event{kind: Comp, seq: -1, observed: -1, at: at, nr: uint32(nr), nw: uint32(nw)})
	}
	return ref
}

// SyncEvent describes a synchronization event to Builder.Sync.
type SyncEvent struct {
	Role    memmodel.Role
	Loc     program.Addr
	SyncSeq int
	PC      int
	// Observed is the synchronization write whose value an acquire
	// returned, NoEvent when the value came from a data write or the
	// initial value; ObservedRole is that write's role.
	Observed     EventRef
	ObservedRole memmodel.Role
}

// Sync adds a synchronization event to processor cpu's stream.
func (b *Builder) Sync(cpu int, s SyncEvent) EventRef {
	ref, ok := b.next(cpu)
	if !ok {
		return ref
	}
	ev := Event{kind: Sync, role: s.Role, at: int(s.Loc), seq: s.SyncSeq, pc: s.PC, observed: -1}
	if r := s.Observed; r.Valid() {
		ev.observedRole = s.ObservedRole
		if r.CPU <= math.MaxUint32 && r.Index >= 0 && r.Index <= math.MaxUint32 {
			// A synchronization event has no access sets: the set sizes
			// hold the reference until Build resolves it.
			ev.observed, ev.nr, ev.nw = packedRef, uint32(r.CPU), uint32(r.Index)
		} else {
			ev.observed = int32(len(b.refs))
			b.refs = append(b.refs, r)
		}
	}
	b.t.events = append(b.t.events, ev)
	return ref
}

// Build puts the events in processor-major order, validates the trace
// and returns it. A trace that fails validation is reported as an
// *InvalidError. The builder must not be used afterwards.
func (b *Builder) Build() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &b.t
	t.start = make([]int, t.NumCPUs+1)
	for c, n := range b.counts {
		t.start[c+1] = t.start[c] + n
	}
	inOrder := true
	for i := 1; i < len(b.runs) && inOrder; i++ {
		inOrder = b.runs[i-1].cpu < b.runs[i].cpu
	}
	if !inOrder {
		b.reorder()
	}
	if err := t.validate(true, b.refs); err != nil {
		return nil, &InvalidError{Err: err}
	}
	return t, nil
}

// reorder puts events that arrived with processors interleaved into
// processor-major order, and their accesses into the columns in the same
// order, so a trace has one representation however its events arrived.
func (b *Builder) reorder() {
	t := &b.t
	// Move each run to its processor's next slots; runs of one processor
	// arrive in its execution order.
	evs := make([]Event, len(t.events))
	next := slices.Clone(t.start[:t.NumCPUs])
	from := 0
	for _, r := range b.runs {
		copy(evs[next[r.cpu]:], t.events[from:from+r.n])
		next[r.cpu] += r.n
		from += r.n
	}
	t.events = evs
	if len(t.locs) == 0 {
		return
	}
	locs, pcs := make([]program.Addr, 0, len(t.locs)), make([]int, 0, len(t.pcs))
	for i := range evs {
		if ev := &evs[i]; ev.kind == Comp {
			end := ev.at + int(ev.nr) + int(ev.nw)
			locs, pcs = append(locs, t.locs[ev.at:end]...), append(pcs, t.pcs[ev.at:end]...)
			ev.at = len(locs) - (end - ev.at)
		}
	}
	t.locs, t.pcs = locs, pcs
}
