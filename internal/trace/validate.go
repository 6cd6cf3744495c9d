package trace

import (
	"fmt"
	"slices"

	"weakrace/internal/bitset"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/telemetry"
)

// Validate checks structural invariants of a trace (typically after
// decoding): event fields match their kind, references resolve, observed
// events are synchronization writes on the same location, and per-location
// synchronization sequence numbers are unique and dense. Events are
// checked in processor-major scan order and the first violation is
// reported; a missing SyncSeq only surfaces when nothing else failed, at
// the lowest such location.
func (t *Trace) Validate() error {
	if t.NumCPUs != len(t.PerCPU) {
		return fmt.Errorf("trace: NumCPUs=%d but %d streams", t.NumCPUs, len(t.PerCPU))
	}
	reg := telemetry.Default()
	sp := reg.StartSpan("trace.validate.streams")
	seen := newSyncSeen(t)
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			if err := t.validateEvent(c, i, ev, seen); err != nil {
				sp.End()
				return err
			}
		}
	}
	sp.End()

	// Density: every SyncSeq is now unique and non-negative, so a
	// location's n sequence numbers are exactly 0..n-1 iff its bitset
	// holds all of them.
	defer reg.StartSpan("trace.validate.so1").End()
	locs := make([]program.Addr, 0, len(seen.dense))
	for loc := range seen.dense {
		locs = append(locs, loc)
	}
	slices.Sort(locs)
	for _, loc := range locs {
		d := seen.dense[loc]
		for seq := 0; seq < d.n; seq++ {
			if !d.seqs.Contains(seq) {
				return fmt.Errorf("trace: location %d: SyncSeq %d missing (%d sync events)", loc, seq, d.n)
			}
		}
	}
	return nil
}

// syncSeen records the (location, SyncSeq) pairs validation has passed.
// A valid trace numbers a location's n synchronization events 0..n-1,
// so an n-bit set per location holds every one of them; a larger SyncSeq
// can never be dense and goes to a map that exists only to catch
// duplicates. Memory stays linear in the trace's synchronization events
// whatever SyncSeq values it carries.
type syncSeen struct {
	dense  map[program.Addr]*locSeqs
	sparse map[syncKey]struct{}
}

// locSeqs holds one location's synchronization-event count n and the
// SyncSeqs below n seen so far.
type locSeqs struct {
	n    int
	seqs *bitset.Set
}

// syncKey identifies one synchronization operation: its location and
// its per-location sequence number.
type syncKey struct {
	loc program.Addr
	seq int
}

func newSyncSeen(t *Trace) *syncSeen {
	dense := map[program.Addr]*locSeqs{}
	for _, evs := range t.PerCPU {
		for _, ev := range evs {
			if ev.Kind != Sync {
				continue
			}
			d := dense[ev.Loc]
			if d == nil {
				d = &locSeqs{}
				dense[ev.Loc] = d
			}
			d.n++
		}
	}
	for _, d := range dense {
		d.seqs = bitset.New(d.n)
	}
	return &syncSeen{dense: dense}
}

// add records (loc, seq) and reports whether it was already present.
func (s *syncSeen) add(loc program.Addr, seq int) (dup bool) {
	if d := s.dense[loc]; seq < d.n {
		dup = d.seqs.Contains(seq)
		d.seqs.Add(seq)
		return dup
	}
	k := syncKey{loc, seq}
	if s.sparse == nil {
		s.sparse = map[syncKey]struct{}{}
	}
	_, dup = s.sparse[k]
	s.sparse[k] = struct{}{}
	return dup
}

// ValidateParallel is Validate; the worker count is ignored.
//
// Deprecated: use Validate.
func (t *Trace) ValidateParallel(int) error { return t.Validate() }

// validateEvent checks event i of stream c, recording a synchronization
// event's (location, SyncSeq) in seen. The position prefix of an error
// message is formatted only on a violation.
func (t *Trace) validateEvent(c, i int, ev *Event, seen *syncSeen) error {
	where := func() string { return fmt.Sprintf("trace: event P%d.%d", c+1, i) }
	switch ev.Kind {
	case Comp:
		if ev.Reads == nil || ev.Writes == nil {
			return fmt.Errorf("%s: computation event with nil access sets", where())
		}
		if ev.Reads.Empty() && ev.Writes.Empty() {
			return fmt.Errorf("%s: empty computation event", where())
		}
		for _, set := range []*bitset.Set{ev.Reads, ev.Writes} {
			bad := -1
			set.Range(func(v int) bool {
				if v >= t.NumLocations {
					bad = v
					return false
				}
				return true
			})
			if bad >= 0 {
				return fmt.Errorf("%s: location %d out of range [0,%d)", where(), bad, t.NumLocations)
			}
		}
	case Sync:
		if !ev.Role.IsSync() {
			return fmt.Errorf("%s: sync event with role %v", where(), ev.Role)
		}
		if ev.Loc < 0 || int(ev.Loc) >= t.NumLocations {
			return fmt.Errorf("%s: sync location %d out of range", where(), ev.Loc)
		}
		if ev.SyncSeq < 0 {
			return fmt.Errorf("%s: negative SyncSeq", where())
		}
		if seen.add(ev.Loc, ev.SyncSeq) {
			return fmt.Errorf("%s: duplicate SyncSeq %d for location %d", where(), ev.SyncSeq, ev.Loc)
		}
		if ev.Observed.Valid() {
			obs := t.Event(ev.Observed)
			if obs == nil {
				return fmt.Errorf("%s: dangling pairing reference %s", where(), ev.Observed)
			}
			if !obs.IsWriteSync() {
				return fmt.Errorf("%s: paired event %s is not a synchronization write", where(), ev.Observed)
			}
			if obs.Loc != ev.Loc {
				return fmt.Errorf("%s: paired event %s is on location %d, want %d", where(), ev.Observed, obs.Loc, ev.Loc)
			}
			if ev.Role != memmodel.RoleAcquire {
				return fmt.Errorf("%s: non-acquire event carries a pairing", where())
			}
		}
	default:
		return fmt.Errorf("%s: unknown kind %d", where(), ev.Kind)
	}
	return nil
}
