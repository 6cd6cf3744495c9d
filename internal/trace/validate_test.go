package trace

import (
	"errors"
	"fmt"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
)

// validateWorkerSet is the worker counts the deprecated ValidateParallel
// forwarder is called with; every one must accept a built trace.
var validateWorkerSet = []int{0, 1, 2, 3, 8, 16}

// synthEvent is one event of a synthetic trace before it is built: a
// synchronization event, or a computation event's access lists.
type synthEvent struct {
	comp          bool
	sync          SyncEvent
	reads, writes []LocPC
}

// synth is a synthetic trace's events per processor and the processor
// order they are handed to the builder in.
type synth struct {
	h       Header
	streams [][]synthEvent
	order   []int
}

// build hands the events to a Builder in arrival order — interleaved
// across processors — and builds the trace.
func (s *synth) build() (*Trace, error) {
	b := NewBuilder(s.h)
	next := make([]int, len(s.streams))
	for _, c := range s.order {
		ev := s.streams[c][next[c]]
		next[c]++
		if ev.comp {
			b.Comp(c, ev.reads, ev.writes)
		} else {
			b.Sync(c, ev.sync)
		}
	}
	return b.Build()
}

// checkBuildError asserts that building s reports exactly want ("" for a
// valid trace) as an *InvalidError, and that Validate and
// ValidateParallel at every worker count accept a valid one.
func checkBuildError(t *testing.T, s *synth, want string) {
	t.Helper()
	tr, err := s.build()
	if want == "" {
		if err != nil {
			t.Fatalf("Build: error %q, want none", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate: error %q on a built trace", err)
		}
		for _, w := range validateWorkerSet {
			if err := tr.ValidateParallel(w); err != nil {
				t.Errorf("ValidateParallel(%d): error %q on a built trace", w, err)
			}
		}
		return
	}
	var ie *InvalidError
	if !errors.As(err, &ie) || err.Error() != want {
		t.Fatalf("Build: error %v, want an *InvalidError %q", err, want)
	}
}

// synthTrace builds a deterministic valid trace of several thousand
// events: cpus streams of roughly perCPU events each, mixing computation events with paired
// sync traffic over locs locations (dense per-location SyncSeqs, every
// odd sync an acquire observing the preceding release on its location).
func synthTrace(cpus, perCPU, locs int) *synth {
	s := &synth{
		h:       Header{ProgramName: "synth", NumCPUs: cpus, NumLocations: locs + 2},
		streams: make([][]synthEvent, cpus),
	}
	seq := make([]int, locs)
	lastRelease := make([]EventRef, locs)
	k := 0
	for len(s.streams[cpus-1]) < perCPU {
		c := k % cpus
		loc := program.Addr(k % locs)
		ev := SyncEvent{Loc: loc, SyncSeq: seq[loc], Observed: NoEvent}
		seq[loc]++
		if seq[loc]%2 == 1 {
			ev.Role = memmodel.RoleRelease
			lastRelease[loc] = EventRef{CPU: c, Index: len(s.streams[c])}
		} else {
			ev.Role = memmodel.RoleAcquire
			ev.Observed = lastRelease[loc]
			ev.ObservedRole = memmodel.RoleRelease
		}
		s.streams[c] = append(s.streams[c], synthEvent{sync: ev})
		s.order = append(s.order, c)
		if k%3 == 0 {
			s.streams[c] = append(s.streams[c], synthEvent{
				comp:   true,
				reads:  []LocPC{{Loc: loc}},
				writes: []LocPC{{Loc: program.Addr(locs)}},
			})
			s.order = append(s.order, c)
		}
		k++
	}
	return s
}

// TestValidateParallelWorkerEquivalence pins the exact error the
// validator reports — through Validate and through the ValidateParallel
// forwarder at every worker count — on a clean trace and across a catalog
// of corruptions planted at different streams, depths, and check stages:
// the first violation in processor-major scan order wins, a duplicate
// SyncSeq beats a pairing error on the same event, and a missing SyncSeq
// is reported only when nothing else failed.
func TestValidateParallelWorkerEquivalence(t *testing.T) {
	const cpus, perCPU, locs = 5, 1400, 7

	checkBuildError(t, synthTrace(cpus, perCPU, locs), "")

	firstSyncAt := func(tr *synth, c, from int) int {
		for i := from; i < len(tr.streams[c]); i++ {
			if !tr.streams[c][i].comp {
				return i
			}
		}
		t.Fatalf("no sync event in stream %d at or after %d", c, from)
		return -1
	}

	cases := []struct {
		name   string
		mutate func(tr *synth)
		want   string
	}{
		{"duplicate within stream", func(tr *synth) {
			i := firstSyncAt(tr, 2, 900)
			j := firstSyncAt(tr, 2, i+1)
			tr.streams[2][j].sync.Loc = tr.streams[2][i].sync.Loc
			tr.streams[2][j].sync.SyncSeq = tr.streams[2][i].sync.SyncSeq
			tr.streams[2][j].sync.Observed = NoEvent
		}, "trace: event P3.901: duplicate SyncSeq 482 for location 3"},
		{"duplicate across streams", func(tr *synth) {
			i := firstSyncAt(tr, 1, 100)
			j := firstSyncAt(tr, 4, 1200)
			tr.streams[4][j].sync.Loc = tr.streams[1][i].sync.Loc
			tr.streams[4][j].sync.SyncSeq = tr.streams[1][i].sync.SyncSeq
			tr.streams[4][j].sync.Observed = NoEvent
		}, "trace: event P5.1200: duplicate SyncSeq 53 for location 5"},
		{"negative seq deep in stream", func(tr *synth) {
			i := firstSyncAt(tr, 3, 1300)
			tr.streams[3][i].sync.SyncSeq = -4
		}, "trace: event P4.1300: negative SyncSeq"},
		{"dangling pairing", func(tr *synth) {
			i := firstSyncAt(tr, 1, 700)
			tr.streams[1][i].sync.Role = memmodel.RoleAcquire
			tr.streams[1][i].sync.Observed = EventRef{CPU: 9, Index: 0}
		}, "trace: event P2.700: dangling pairing reference P10.0"},
		{"negative pairing index", func(tr *synth) {
			i := firstSyncAt(tr, 1, 700)
			tr.streams[1][i].sync.Role = memmodel.RoleAcquire
			tr.streams[1][i].sync.Observed = EventRef{CPU: 0, Index: -1}
		}, "trace: event P2.700: dangling pairing reference P1.-1"},
		{"comp location negative", func(tr *synth) {
			for i := range tr.streams[3] {
				if ev := &tr.streams[3][i]; ev.comp && i > 400 {
					ev.writes = []LocPC{{Loc: -2}}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: location -2 out of range [0,9)"},
		{"comp locations not ascending", func(tr *synth) {
			for i := range tr.streams[3] {
				if ev := &tr.streams[3][i]; ev.comp && i > 400 {
					ev.reads = []LocPC{{Loc: 3}, {Loc: 1}}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: access set location 1 after 3, want strictly ascending"},
		{"comp location repeated", func(tr *synth) {
			for i := range tr.streams[3] {
				if ev := &tr.streams[3][i]; ev.comp && i > 400 {
					ev.writes = []LocPC{{Loc: 2}, {Loc: 2}}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: access set location 2 after 2, want strictly ascending"},
		{"comp location out of range", func(tr *synth) {
			for i := range tr.streams[3] {
				if ev := &tr.streams[3][i]; ev.comp && i > 400 {
					ev.reads = []LocPC{{Loc: program.Addr(tr.h.NumLocations + 5)}}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: location 14 out of range [0,9)"},
		{"empty comp event", func(tr *synth) {
			for i := range tr.streams[0] {
				if ev := &tr.streams[0][i]; ev.comp && i > 200 {
					ev.reads, ev.writes = nil, nil
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P1.201: empty computation event"},
		{"duplicate and bad pairing on one event", func(tr *synth) {
			// The duplicate check ran before the pairing checks in the
			// serial scan; the duplicate must win the tie.
			i := firstSyncAt(tr, 2, 500)
			j := firstSyncAt(tr, 2, i+1)
			tr.streams[2][j].sync.Loc = tr.streams[2][i].sync.Loc
			tr.streams[2][j].sync.SyncSeq = tr.streams[2][i].sync.SyncSeq
			tr.streams[2][j].sync.Role = memmodel.RoleAcquire
			tr.streams[2][j].sync.Observed = EventRef{CPU: 9, Index: 0}
		}, "trace: event P3.501: duplicate SyncSeq 268 for location 1"},
		{"two errors in different streams", func(tr *synth) {
			// Scan order picks the smaller (cpu, index) — the role error
			// in stream 1 beats the negative seq in stream 4.
			i := firstSyncAt(tr, 1, 1000)
			tr.streams[1][i].sync.Role = memmodel.RoleData
			j := firstSyncAt(tr, 4, 50)
			_ = j
			k := firstSyncAt(tr, 4, 1100)
			tr.streams[4][k].sync.SyncSeq = -1
		}, "trace: event P2.1000: sync event with role data"},
		{"missing seq", func(tr *synth) {
			i := firstSyncAt(tr, 2, 600)
			tr.streams[2][i].sync.SyncSeq = 1 << 20
		}, "trace: location 5: SyncSeq 321 missing (750 sync events)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := synthTrace(cpus, perCPU, locs)
			c.mutate(tr)
			checkBuildError(t, tr, c.want)
		})
	}
}

// TestValidateParallelDuplicateTiePicksScanOrder pins the duplicate
// winner on a trace whose duplicate groups resolve at different scan
// positions: the reported duplicate is the one the scan hits first.
func TestValidateParallelDuplicateTiePicksScanOrder(t *testing.T) {
	tr := synthTrace(4, 1200, 5)
	// Group A trips (second occurrence) at stream 3's tail; group B at
	// stream 1's middle. B's trip point has the smaller (cpu, index).
	iA := 0
	for i := len(tr.streams[3]) - 1; i >= 0; i-- {
		if !tr.streams[3][i].comp {
			iA = i
			break
		}
	}
	a0 := tr.streams[0][0].sync
	aT := &tr.streams[3][iA].sync
	aT.Loc, aT.SyncSeq, aT.Observed = a0.Loc, a0.SyncSeq, NoEvent

	iB := 0
	for i := 600; ; i++ {
		if !tr.streams[1][i].comp {
			iB = i
			break
		}
	}
	if tr.streams[0][2].comp {
		t.Fatal("expected a sync event at P1 index 2")
	}
	b0 := tr.streams[0][2].sync
	bT := &tr.streams[1][iB].sync
	bT.Loc, bT.SyncSeq, bT.Observed = b0.Loc, b0.SyncSeq, NoEvent

	want := fmt.Sprintf("trace: event P%d.%d: duplicate SyncSeq %d for location %d",
		1+1, iB, bT.SyncSeq, bT.Loc)
	checkBuildError(t, tr, want)
}
