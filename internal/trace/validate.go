package trace

import (
	"cmp"
	"fmt"
	"slices"

	"weakrace/internal/memmodel"
	"weakrace/internal/telemetry"
)

// Validate checks a trace's structural invariants: event fields match
// their kind, access sets are strictly ascending inside the location
// range, pairings name synchronization writes on the same location, and
// per-location synchronization sequence numbers are unique and dense.
// Every Trace is valid when made, so Validate re-checks what a
// constructor promised; the decoders validate through Builder.
func (t *Trace) Validate() error {
	if err := t.CheckHeader(); err != nil {
		return err
	}
	return t.validate(false, nil)
}

// ValidateParallel is Validate; the worker count is ignored.
//
// Deprecated: use Validate. It remains only for callers that time
// validation on its own.
func (t *Trace) ValidateParallel(int) error { return t.Validate() }

// seqAt is a synchronization event whose SyncSeq is at or past its
// location's event count — never dense, so it only matters as a
// possible duplicate.
type seqAt struct {
	loc, seq, ev int
}

// validate checks the events in processor-major scan order and reports
// the first violation; a missing SyncSeq only surfaces when nothing else
// failed, at the lowest such location. With pending set, the events'
// pairings are a Builder's pending references, packed or into refs,
// resolved to global indices as the scan passes them.
//
// Duplicates are found with dense per-location flags: a valid trace
// numbers a location's n synchronization events 0..n-1, so location l's
// flags are seen[off[l]:off[l+1]], one per event. A SyncSeq at or past n
// can never be dense; such events are sorted after the scan to find
// their duplicates, which win over any later violation.
func (t *Trace) validate(pending bool, refs []EventRef) error {
	reg := telemetry.Default()
	sp := reg.StartSpan("trace.validate.streams")
	maxLoc := -1
	for i := range t.events {
		if ev := &t.events[i]; ev.kind == Sync && ev.at >= 0 && ev.at < t.NumLocations {
			maxLoc = max(maxLoc, ev.at)
		}
	}
	off := make([]int32, maxLoc+2)
	for i := range t.events {
		if ev := &t.events[i]; ev.kind == Sync && ev.at >= 0 && ev.at < t.NumLocations {
			off[ev.at+1]++
		}
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	seen := make([]bool, off[len(off)-1])
	var sparse []seqAt
	err := t.scan(pending, refs, off, seen, &sparse)
	if dup := firstDuplicate(sparse); dup != nil {
		err = fmt.Errorf("%s: duplicate SyncSeq %d for location %d", t.where(dup.ev), dup.seq, dup.loc)
	}
	sp.End()
	if err != nil {
		return err
	}

	// Density: every SyncSeq is now unique and non-negative, so a
	// location's n sequence numbers are exactly 0..n-1 iff its flags
	// are all set.
	defer reg.StartSpan("trace.validate.so1").End()
	for l := 0; l+1 < len(off); l++ {
		flags := seen[off[l]:off[l+1]]
		for seq, ok := range flags {
			if !ok {
				return fmt.Errorf("trace: location %d: SyncSeq %d missing (%d sync events)", l, seq, len(flags))
			}
		}
	}
	return nil
}

// where formats the position prefix of an error about event i.
func (t *Trace) where(i int) string {
	ref := t.Ref(i)
	return fmt.Sprintf("trace: event P%d.%d", ref.CPU+1, ref.Index)
}

// scan runs the per-event checks in processor-major order, setting each
// synchronization event's flag in seen and collecting the sparse ones,
// and returns the first violation.
func (t *Trace) scan(pending bool, refs []EventRef, off []int32, seen []bool, sparse *[]seqAt) error {
	for i := range t.events {
		ev := &t.events[i]
		if ev.kind == Comp {
			if ev.nr == 0 && ev.nw == 0 {
				return fmt.Errorf("%s: empty computation event", t.where(i))
			}
			for _, set := range [2]Locs{t.Reads(i), t.Writes(i)} {
				for j, loc := range set {
					if loc < 0 || int(loc) >= t.NumLocations {
						return fmt.Errorf("%s: location %d out of range [0,%d)", t.where(i), loc, t.NumLocations)
					}
					if j > 0 && loc <= set[j-1] {
						return fmt.Errorf("%s: access set location %d after %d, want strictly ascending", t.where(i), loc, set[j-1])
					}
				}
			}
			continue
		}
		if !ev.role.IsSync() {
			return fmt.Errorf("%s: sync event with role %v", t.where(i), ev.role)
		}
		if ev.at < 0 || ev.at >= t.NumLocations {
			return fmt.Errorf("%s: sync location %d out of range", t.where(i), ev.at)
		}
		if ev.seq < 0 {
			return fmt.Errorf("%s: negative SyncSeq", t.where(i))
		}
		if base, n := off[ev.at], int(off[ev.at+1]-off[ev.at]); ev.seq < n {
			if seen[int(base)+ev.seq] {
				return fmt.Errorf("%s: duplicate SyncSeq %d for location %d", t.where(i), ev.seq, ev.at)
			}
			seen[int(base)+ev.seq] = true
		} else {
			*sparse = append(*sparse, seqAt{loc: ev.at, seq: ev.seq, ev: i})
		}
		if ev.observed == -1 {
			continue
		}
		j := int(ev.observed)
		var ref EventRef
		if pending {
			if j == packedRef {
				ref = EventRef{CPU: int(ev.nr), Index: int(ev.nw)}
				ev.nr, ev.nw = 0, 0
			} else {
				ref = refs[j]
			}
			j = t.index(ref)
			if j < 0 {
				return fmt.Errorf("%s: dangling pairing reference %s", t.where(i), ref)
			}
			ev.observed = int32(j)
		} else {
			if j >= len(t.events) {
				return fmt.Errorf("%s: dangling pairing reference to event %d of %d", t.where(i), j, len(t.events))
			}
			ref = t.Ref(j)
		}
		obs := &t.events[j]
		if !obs.IsWriteSync() {
			return fmt.Errorf("%s: paired event %s is not a synchronization write", t.where(i), ref)
		}
		if obs.at != ev.at {
			return fmt.Errorf("%s: paired event %s is on location %d, want %d", t.where(i), ref, obs.at, ev.at)
		}
		if ev.role != memmodel.RoleAcquire {
			return fmt.Errorf("%s: non-acquire event carries a pairing", t.where(i))
		}
	}
	return nil
}

// firstDuplicate returns the sparse event the scan order reaches first
// that repeats an earlier event's (location, SyncSeq), nil when none.
func firstDuplicate(sparse []seqAt) *seqAt {
	slices.SortFunc(sparse, func(a, b seqAt) int {
		return cmp.Or(cmp.Compare(a.loc, b.loc), cmp.Compare(a.seq, b.seq), cmp.Compare(a.ev, b.ev))
	})
	var first *seqAt
	for k := 1; k < len(sparse); k++ {
		s := &sparse[k]
		if s.loc == sparse[k-1].loc && s.seq == sparse[k-1].seq && (first == nil || s.ev < first.ev) {
			first = s
		}
	}
	return first
}
