package trace

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
)

// fig1bProgram is the synced message-passing program (lock starts held).
func fig1bProgram() *program.Program {
	const x, y, s = 0, 1, 2
	b := program.NewBuilder("fig1b", 3, 2)
	b.Thread("P1").
		Write(program.At(x), program.Imm(1)).
		Write(program.At(y), program.Imm(1)).
		Unset(program.At(s))
	b.Thread("P2").
		Label("spin").
		TestAndSet(0, program.At(s)).
		BranchNotZero(0, "spin").
		Read(0, program.At(y)).
		Read(1, program.At(x))
	return b.MustBuild()
}

func runFig1b(t *testing.T, seed int64) *Trace {
	t.Helper()
	r, err := sim.Run(fig1bProgram(), sim.Config{
		Model: memmodel.WO, Seed: seed,
		InitMemory: map[program.Addr]int64{2: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromExecution(r.Exec)
}

func TestFromExecutionShape(t *testing.T) {
	tr := runFig1b(t, 7)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// P1: one computation event (writes x,y) then one sync release event.
	p1 := tr.PerCPU[0]
	if len(p1) != 2 {
		t.Fatalf("P1 has %d events, want 2:\n%v", len(p1), p1)
	}
	if p1[0].Kind != Comp || !p1[0].Writes.Contains(0) || !p1[0].Writes.Contains(1) || len(p1[0].Reads) != 0 {
		t.Fatalf("P1 comp event wrong: %v", p1[0])
	}
	if p1[1].Kind != Sync || p1[1].Role != memmodel.RoleRelease || p1[1].Loc != 2 {
		t.Fatalf("P1 sync event wrong: %v", p1[1])
	}
	// P2: alternating Test&Set events (acquire, sync-write) then a final
	// comp event reading y and x.
	p2 := tr.PerCPU[1]
	last := p2[len(p2)-1]
	if last.Kind != Comp || !last.Reads.Contains(0) || !last.Reads.Contains(1) || len(last.Writes) != 0 {
		t.Fatalf("P2 final comp event wrong: %v", last)
	}
	// The winning acquire (the last acquire) must be paired with P1's
	// release event.
	var winning *Event
	for _, ev := range p2 {
		if ev.Kind == Sync && ev.Role == memmodel.RoleAcquire && ev.Observed.Valid() &&
			ev.ObservedRole == memmodel.RoleRelease {
			winning = ev
		}
	}
	if winning == nil {
		t.Fatal("no acquire paired with a release")
	}
	if winning.Observed.CPU != 0 {
		t.Fatalf("winning acquire paired with %v, want P1's release", winning.Observed)
	}
	if got := tr.Event(winning.Observed); got != p1[1] {
		t.Fatal("Observed reference does not resolve to P1's release event")
	}
}

func TestTestAndSetPairsObserveSyncWrites(t *testing.T) {
	// A losing Test&Set reads the 1 written by a previous Test&Set: its
	// Observed must point at that sync-write event with RoleSyncOther.
	tr := runFig1b(t, 11)
	sawLoser := false
	for _, evs := range tr.PerCPU {
		for _, ev := range evs {
			if ev.Kind == Sync && ev.Role == memmodel.RoleAcquire && ev.Observed.Valid() &&
				ev.ObservedRole == memmodel.RoleSyncOther {
				sawLoser = true
				obs := tr.Event(ev.Observed)
				if obs == nil || obs.Role != memmodel.RoleSyncOther {
					t.Fatalf("loser acquire pairing broken: %v", ev)
				}
			}
		}
	}
	// Not every seed makes the spinner lose at least once; seed 11 might.
	// If it never lost, the test is vacuous; find a seed where it loses.
	if !sawLoser {
		for seed := int64(0); seed < 100; seed++ {
			tr = runFig1b(t, seed)
			for _, evs := range tr.PerCPU {
				for _, ev := range evs {
					if ev.Kind == Sync && ev.Role == memmodel.RoleAcquire &&
						ev.Observed.Valid() && ev.ObservedRole == memmodel.RoleSyncOther {
						sawLoser = true
					}
				}
			}
			if sawLoser {
				break
			}
		}
	}
	if !sawLoser {
		t.Fatal("no seed produced a losing Test&Set")
	}
}

func TestReadWritePCProvenance(t *testing.T) {
	tr := runFig1b(t, 7)
	p1 := tr.PerCPU[0]
	if want := (PCs{{Loc: 0, PC: 0}, {Loc: 1, PC: 1}}); !reflect.DeepEqual(p1[0].WritePC, want) {
		t.Fatalf("P1 WritePC = %v, want %v", p1[0].WritePC, want)
	}
	p2 := tr.PerCPU[1]
	last := p2[len(p2)-1]
	if want := (PCs{{Loc: 0, PC: 3}, {Loc: 1, PC: 2}}); !reflect.DeepEqual(last.ReadPC, want) {
		t.Fatalf("P2 ReadPC = %v, want %v", last.ReadPC, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := runFig1b(t, 7)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.ProgramName != want.ProgramName || got.Model != want.Model ||
		got.Seed != want.Seed || got.NumCPUs != want.NumCPUs ||
		got.NumLocations != want.NumLocations {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if got.NumEvents() != want.NumEvents() {
		t.Fatalf("event count %d, want %d", got.NumEvents(), want.NumEvents())
	}
	for c := range want.PerCPU {
		for i := range want.PerCPU[c] {
			w, g := want.PerCPU[c][i], got.PerCPU[c][i]
			if w.Kind != g.Kind || w.Role != g.Role || w.Loc != g.Loc ||
				w.SyncSeq != g.SyncSeq || w.PC != g.PC ||
				w.Observed != g.Observed || w.ObservedRole != g.ObservedRole {
				t.Fatalf("P%d.%d mismatch:\nwant %v\ngot  %v", c+1, i, w, g)
			}
			if w.Kind == Comp {
				if !slices.Equal(w.Reads, g.Reads) || !slices.Equal(w.Writes, g.Writes) {
					t.Fatalf("P%d.%d access sets mismatch", c+1, i)
				}
				if !reflect.DeepEqual(w.ReadPC, g.ReadPC) || !reflect.DeepEqual(w.WritePC, g.WritePC) {
					t.Fatalf("P%d.%d PC provenance mismatch", c+1, i)
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := runFig1b(t, 13)
	path := filepath.Join(t.TempDir(), "t.wrt")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("WRT1"),                     // truncated after magic
		[]byte("WRT1\xff\xff\xff\xff\xff"), // absurd string length
	}
	for i, c := range cases {
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsCorruptTail(t *testing.T) {
	tr := runFig1b(t, 7)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Truncations must error, not crash or succeed.
	for _, n := range []int{5, 10, len(enc) / 2, len(enc) - 1} {
		if n >= len(enc) {
			continue
		}
		if _, err := Decode(bytes.NewReader(enc[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestValidateCatchesBrokenTraces(t *testing.T) {
	mk := func() *Trace {
		return &Trace{
			ProgramName: "x", NumCPUs: 1, NumLocations: 4,
			PerCPU: [][]*Event{{
				{Kind: Sync, Role: memmodel.RoleRelease, Loc: 1, SyncSeq: 0, Observed: NoEvent},
			}},
		}
	}
	good := mk()
	if err := good.Validate(); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"cpu mismatch", func(t *Trace) { t.NumCPUs = 2 }, "streams"},
		{"bad sync loc", func(t *Trace) { t.PerCPU[0][0].Loc = 9 }, "out of range"},
		{"data role on sync", func(t *Trace) { t.PerCPU[0][0].Role = memmodel.RoleData }, "role"},
		{"negative seq", func(t *Trace) { t.PerCPU[0][0].SyncSeq = -1 }, "SyncSeq"},
		{"dangling pair", func(t *Trace) {
			t.PerCPU[0][0].Role = memmodel.RoleAcquire
			t.PerCPU[0][0].Observed = EventRef{CPU: 5, Index: 0}
		}, "dangling"},
		{"empty comp", func(t *Trace) {
			t.PerCPU[0] = append(t.PerCPU[0], &Event{
				Kind: Comp,
			})
		}, "empty computation"},
		{"comp loc out of range", func(t *Trace) {
			t.PerCPU[0] = append(t.PerCPU[0], &Event{
				Kind: Comp, Reads: Locs{99},
			})
		}, "out of range"},
	}
	for _, c := range cases {
		tr := mk()
		c.mutate(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestValidateDuplicateSyncSeq(t *testing.T) {
	tr := &Trace{
		ProgramName: "x", NumCPUs: 1, NumLocations: 2,
		PerCPU: [][]*Event{{
			{Kind: Sync, Role: memmodel.RoleRelease, Loc: 0, SyncSeq: 0, Observed: NoEvent},
			{Kind: Sync, Role: memmodel.RoleRelease, Loc: 0, SyncSeq: 0, Observed: NoEvent},
		}},
	}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate SyncSeq") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMissingSyncSeq(t *testing.T) {
	tr := &Trace{
		ProgramName: "x", NumCPUs: 1, NumLocations: 2,
		PerCPU: [][]*Event{{
			{Kind: Sync, Role: memmodel.RoleRelease, Loc: 0, SyncSeq: 1, Observed: NoEvent},
		}},
	}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v", err)
	}
}

func TestDump(t *testing.T) {
	tr := runFig1b(t, 7)
	var buf bytes.Buffer
	if err := Dump(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace \"fig1b\"", "P1:", "P2:", "sync release loc=2", "comp reads="} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestEventRefString(t *testing.T) {
	if got := (EventRef{CPU: 1, Index: 3}).String(); got != "P2.3" {
		t.Fatalf("ref string = %q", got)
	}
	if got := NoEvent.String(); got != "-" {
		t.Fatalf("NoEvent string = %q", got)
	}
}

// A trace built through a reused arena must be byte-identical to one
// built fresh — across executions of different shapes, so slab reuse
// exercises both the grow and the re-carve paths. Encoded bytes are the
// equality oracle (the codec serializes every semantic field).
func TestFromExecutionIntoArenaReuse(t *testing.T) {
	ar := NewArena()
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for round := 0; round < 3; round++ {
		for seed := int64(1); seed <= 5; seed++ {
			r, err := sim.Run(fig1bProgram(), sim.Config{
				Model: memmodel.WO, Seed: seed,
				InitMemory: map[program.Addr]int64{2: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			fresh := encode(FromExecution(r.Exec))
			pooled := FromExecutionInto(r.Exec, ar)
			if err := pooled.Validate(); err != nil {
				t.Fatalf("round %d seed %d: arena-built trace invalid: %v", round, seed, err)
			}
			if !bytes.Equal(fresh, encode(pooled)) {
				t.Fatalf("round %d seed %d: arena-built trace differs from fresh build", round, seed)
			}
		}
	}
}

// TestLocsString: a location set renders as {a, b, c}, an empty one as
// {}, through String, AppendTo and fmt alike.
func TestLocsString(t *testing.T) {
	for _, c := range []struct {
		s    Locs
		want string
	}{
		{nil, "{}"},
		{Locs{}, "{}"},
		{Locs{1, 2}, "{1, 2}"},
		{Locs{0, 64, 1<<20 - 1}, "{0, 64, 1048575}"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
		if got := string(c.s.AppendTo([]byte("x="))); got != "x="+c.want {
			t.Errorf("AppendTo = %q, want %q", got, "x="+c.want)
		}
		if got := fmt.Sprintf("%s", c.s); got != c.want {
			t.Errorf("%%s = %q, want %q", got, c.want)
		}
	}
}

func TestLocsContains(t *testing.T) {
	s := Locs{0, 3, 64, 1<<20 - 1}
	for loc := program.Addr(-1); loc <= 1<<20; loc++ {
		if got, want := s.Contains(loc), slices.Contains(s, loc); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", loc, got, want)
		}
	}
	if Locs(nil).Contains(0) {
		t.Fatal("the empty set contains 0")
	}
}
