package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/workload"
)

func traceFor(t *testing.T, w *workload.Workload, seed int64) *Trace {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	return FromExecution(r.Exec)
}

func TestTextRoundTrip(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.Figure1a(),
		workload.Figure1b(),
		workload.Figure2(),
		workload.LockedCounter(3, 3, 1),
	} {
		for seed := int64(0); seed < 5; seed++ {
			tr := traceFor(t, w, seed)
			var buf bytes.Buffer
			if err := EncodeText(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeText(&buf)
			if err != nil {
				t.Fatalf("%s seed %d: %v\n", w.Name, seed, err)
			}
			assertTracesEqual(t, tr, got)
		}
	}
}

func TestTextAndBinaryAgree(t *testing.T) {
	tr := traceFor(t, workload.Figure2(), 3)
	var txt, bin bytes.Buffer
	if err := EncodeText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&bin, tr); err != nil {
		t.Fatal(err)
	}
	fromTxt, err := DecodeText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Decode(&bin)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, fromBin, fromTxt)
}

func TestTextFormatIsEditable(t *testing.T) {
	// A hand-written trace parses; comments and blank lines are ignored.
	src := `weakrace-trace 1
program "hand"
model WO
seed 0
cpus 2
locations 3

# writer
cpu 0
comp reads= writes=0@0,1@1
sync release loc=2 seq=0 pc=2
cpu 1
sync acquire loc=2 seq=1 pc=0 paired=0:1/release
comp reads=1@2,0@3 writes=
end
`
	tr, err := DecodeText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.ProgramName != "hand" || tr.NumCPUs != 2 || tr.NumEvents() != 4 {
		t.Fatalf("parsed trace wrong: %+v", tr)
	}
	from, _ := tr.Stream(1)
	acq := tr.Event(from)
	if obs := acq.Observed(); obs < 0 || tr.Ref(obs) != (EventRef{CPU: 0, Index: 1}) ||
		acq.ObservedRole() != memmodel.RoleRelease {
		t.Fatalf("pairing parsed wrong: %s", tr.EventString(from))
	}
	if acq.Loc() != 2 || acq.SyncSeq() != 1 {
		t.Fatalf("sync fields parsed wrong: %s", tr.EventString(from))
	}
	comp := from + 1
	if !slices.Equal(tr.Reads(comp), Locs{0, 1}) || !slices.Equal(tr.ReadPCs(comp), []int{3, 2}) {
		t.Fatalf("comp access parsed wrong: %s", tr.EventString(comp))
	}
}

func TestTextDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"bad magic", "nope\n", "header"},
		{"missing header field", "weakrace-trace 1\nprogram \"x\"\n", "end of input"},
		{"bad model", "weakrace-trace 1\nprogram \"x\"\nmodel PSO\n", "unknown model"},
		{"event before cpu", header() + "comp reads= writes=0@0\nend\n", "before any"},
		{"bad cpu index", header() + "cpu 9\nend\n", "bad cpu index"},
		{"bad comp field", header() + "cpu 0\ncomp nope\nend\n", "bad comp field"},
		{"bad access", header() + "cpu 0\ncomp reads=zz writes=\nend\n", "bad access"},
		{"bad sync role", header() + "cpu 0\nsync banana loc=0 seq=0 pc=0\nend\n", "unknown sync role"},
		{"bad pairing", header() + "cpu 0\nsync acquire loc=0 seq=0 pc=0 paired=x\nend\n", "bad pairing"},
		{"unknown directive", header() + "bogus\nend\n", "unknown directive"},
		{"no end", header() + "cpu 0\n", "end of input"},
		{"validation failure", header() + "cpu 0\nsync release loc=99 seq=0 pc=0\nend\n", "out of range"},
	}
	for _, c := range cases {
		if _, err := DecodeText(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func header() string {
	return "weakrace-trace 1\nprogram \"x\"\nmodel WO\nseed 0\ncpus 2\nlocations 3\n"
}
