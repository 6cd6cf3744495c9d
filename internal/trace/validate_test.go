package trace

import (
	"fmt"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
)

// validateWorkerSet is the worker counts the deprecated ValidateParallel
// forwarder is called with; every one must report Validate's error.
var validateWorkerSet = []int{0, 1, 2, 3, 8, 16}

// checkValidateError asserts that Validate, and ValidateParallel at every
// worker count, report exactly want ("" for a valid trace).
func checkValidateError(t *testing.T, tr *Trace, want string) {
	t.Helper()
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if got := msg(tr.Validate()); got != want {
		t.Fatalf("Validate: error %q, want %q", got, want)
	}
	for _, w := range validateWorkerSet {
		if got := msg(tr.ValidateParallel(w)); got != want {
			t.Errorf("ValidateParallel(%d): error %q, want %q", w, got, want)
		}
	}
}

// synthTrace builds a deterministic valid trace of several thousand
// events: cpus streams of roughly perCPU events each, mixing computation events with paired
// sync traffic over locs locations (dense per-location SyncSeqs, every
// odd sync an acquire observing the preceding release on its location).
func synthTrace(cpus, perCPU, locs int) *Trace {
	tr := &Trace{
		ProgramName: "synth", NumCPUs: cpus, NumLocations: locs + 2,
		PerCPU: make([][]*Event, cpus),
	}
	seq := make([]int, locs)
	lastRelease := make([]EventRef, locs)
	k := 0
	for len(tr.PerCPU[cpus-1]) < perCPU {
		c := k % cpus
		loc := program.Addr(k % locs)
		ev := &Event{Kind: Sync, Loc: loc, SyncSeq: seq[loc], Observed: NoEvent}
		seq[loc]++
		if seq[loc]%2 == 1 {
			ev.Role = memmodel.RoleRelease
			lastRelease[loc] = EventRef{CPU: c, Index: len(tr.PerCPU[c])}
		} else {
			ev.Role = memmodel.RoleAcquire
			ev.Observed = lastRelease[loc]
			ev.ObservedRole = memmodel.RoleRelease
		}
		tr.PerCPU[c] = append(tr.PerCPU[c], ev)
		if k%3 == 0 {
			tr.PerCPU[c] = append(tr.PerCPU[c], &Event{
				Kind:    Comp,
				Reads:   Locs{loc},
				Writes:  Locs{program.Addr(locs)},
				SyncSeq: -1, Observed: NoEvent,
			})
		}
		k++
	}
	return tr
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

	checkValidateError(t, synthTrace(cpus, perCPU, locs), "")

	firstSyncAt := func(tr *Trace, c, from int) int {
		for i := from; i < len(tr.PerCPU[c]); i++ {
			if tr.PerCPU[c][i].Kind == Sync {
				return i
			}
		}
		t.Fatalf("no sync event in stream %d at or after %d", c, from)
		return -1
	}

	cases := []struct {
		name   string
		mutate func(tr *Trace)
		want   string
	}{
		{"duplicate within stream", func(tr *Trace) {
			i := firstSyncAt(tr, 2, 900)
			j := firstSyncAt(tr, 2, i+1)
			tr.PerCPU[2][j].Loc = tr.PerCPU[2][i].Loc
			tr.PerCPU[2][j].SyncSeq = tr.PerCPU[2][i].SyncSeq
			tr.PerCPU[2][j].Observed = NoEvent
		}, "trace: event P3.901: duplicate SyncSeq 482 for location 3"},
		{"duplicate across streams", func(tr *Trace) {
			i := firstSyncAt(tr, 1, 100)
			j := firstSyncAt(tr, 4, 1200)
			tr.PerCPU[4][j].Loc = tr.PerCPU[1][i].Loc
			tr.PerCPU[4][j].SyncSeq = tr.PerCPU[1][i].SyncSeq
			tr.PerCPU[4][j].Observed = NoEvent
		}, "trace: event P5.1200: duplicate SyncSeq 53 for location 5"},
		{"negative seq deep in stream", func(tr *Trace) {
			i := firstSyncAt(tr, 3, 1300)
			tr.PerCPU[3][i].SyncSeq = -4
		}, "trace: event P4.1300: negative SyncSeq"},
		{"dangling pairing", func(tr *Trace) {
			i := firstSyncAt(tr, 1, 700)
			tr.PerCPU[1][i].Role = memmodel.RoleAcquire
			tr.PerCPU[1][i].Observed = EventRef{CPU: 9, Index: 0}
		}, "trace: event P2.700: dangling pairing reference P10.0"},
		{"negative pairing index", func(tr *Trace) {
			i := firstSyncAt(tr, 1, 700)
			tr.PerCPU[1][i].Role = memmodel.RoleAcquire
			tr.PerCPU[1][i].Observed = EventRef{CPU: 0, Index: -1}
		}, "trace: event P2.700: dangling pairing reference P1.-1"},
		{"comp location negative", func(tr *Trace) {
			for i, ev := range tr.PerCPU[3] {
				if ev.Kind == Comp && i > 400 {
					ev.Writes = Locs{-2}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: location -2 out of range [0,9)"},
		{"comp locations not ascending", func(tr *Trace) {
			for i, ev := range tr.PerCPU[3] {
				if ev.Kind == Comp && i > 400 {
					ev.Reads = Locs{3, 1}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: access set location 1 after 3, want strictly ascending"},
		{"comp location repeated", func(tr *Trace) {
			for i, ev := range tr.PerCPU[3] {
				if ev.Kind == Comp && i > 400 {
					ev.Writes = Locs{2, 2}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: access set location 2 after 2, want strictly ascending"},
		{"comp location out of range", func(tr *Trace) {
			for i, ev := range tr.PerCPU[3] {
				if ev.Kind == Comp && i > 400 {
					ev.Reads = Locs{program.Addr(tr.NumLocations + 5)}
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P4.401: location 14 out of range [0,9)"},
		{"empty comp event", func(tr *Trace) {
			for i, ev := range tr.PerCPU[0] {
				if ev.Kind == Comp && i > 200 {
					ev.Reads, ev.Writes = nil, nil
					return
				}
			}
			t.Fatal("no comp event found")
		}, "trace: event P1.201: empty computation event"},
		{"duplicate and bad pairing on one event", func(tr *Trace) {
			// The duplicate check ran before the pairing checks in the
			// serial scan; the duplicate must win the tie.
			i := firstSyncAt(tr, 2, 500)
			j := firstSyncAt(tr, 2, i+1)
			tr.PerCPU[2][j].Loc = tr.PerCPU[2][i].Loc
			tr.PerCPU[2][j].SyncSeq = tr.PerCPU[2][i].SyncSeq
			tr.PerCPU[2][j].Role = memmodel.RoleAcquire
			tr.PerCPU[2][j].Observed = EventRef{CPU: 9, Index: 0}
		}, "trace: event P3.501: duplicate SyncSeq 268 for location 1"},
		{"two errors in different streams", func(tr *Trace) {
			// Scan order picks the smaller (cpu, index) — the role error
			// in stream 1 beats the negative seq in stream 4.
			i := firstSyncAt(tr, 1, 1000)
			tr.PerCPU[1][i].Role = memmodel.RoleData
			j := firstSyncAt(tr, 4, 50)
			_ = j
			k := firstSyncAt(tr, 4, 1100)
			tr.PerCPU[4][k].SyncSeq = -1
		}, "trace: event P2.1000: sync event with role data"},
		{"missing seq", func(tr *Trace) {
			i := firstSyncAt(tr, 2, 600)
			tr.PerCPU[2][i].SyncSeq = 1 << 20
		}, "trace: location 5: SyncSeq 321 missing (750 sync events)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := synthTrace(cpus, perCPU, locs)
			c.mutate(tr)
			checkValidateError(t, tr, c.want)
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
	for i := len(tr.PerCPU[3]) - 1; i >= 0; i-- {
		if tr.PerCPU[3][i].Kind == Sync {
			iA = i
			break
		}
	}
	a0 := tr.PerCPU[0][0]
	aT := tr.PerCPU[3][iA]
	aT.Loc, aT.SyncSeq, aT.Observed = a0.Loc, a0.SyncSeq, NoEvent

	iB := 0
	for i := 600; ; i++ {
		if tr.PerCPU[1][i].Kind == Sync {
			iB = i
			break
		}
	}
	b0 := tr.PerCPU[0][2]
	if b0.Kind != Sync {
		t.Fatal("expected a sync event at P1 index 2")
	}
	bT := tr.PerCPU[1][iB]
	bT.Loc, bT.SyncSeq, bT.Observed = b0.Loc, b0.SyncSeq, NoEvent

	want := fmt.Sprintf("trace: event P%d.%d: duplicate SyncSeq %d for location %d",
		1+1, iB, bT.SyncSeq, bT.Loc)
	checkValidateError(t, tr, want)
}
