package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestEventLayout pins the event slab's element: at most 40 bytes, and
// no field the garbage collector has to scan.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); size > 40 {
		t.Errorf("trace.Event is %d bytes, want at most 40", size)
	}
	typ := reflect.TypeOf(trace.Event{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Array, reflect.Struct:
			t.Errorf("trace.Event field %s has kind %s, want a scalar", f.Name, f.Type.Kind())
		}
	}
}

// TestFromExecutionTracesValidate runs the standalone validator over
// every trace FromExecutionInto builds in the repository's workloads:
// core.Analyze does not validate, so this is what holds the instrumented
// traces to the decoders' invariants. One arena is reused across 200
// LockedCounter seeds, so the slabs' reuse is held to them too.
func TestFromExecutionTracesValidate(t *testing.T) {
	check := func(name string, w *workload.Workload, model memmodel.Model, seed int64, ar *trace.Arena) {
		t.Helper()
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := trace.FromExecutionInto(r.Exec, ar).Validate(); err != nil {
			t.Fatalf("%s: FromExecutionInto built an invalid trace: %v", name, err)
		}
	}
	for i, c := range workload.Corpus(60, 1) {
		check(fmt.Sprintf("corpus %d", i), c.Workload, c.Model, c.Seed, nil)
	}
	check("figure 2", workload.Figure2(), memmodel.WO, 674, nil)
	for i, w := range []*workload.Workload{
		workload.Figure1a(), workload.Figure1b(),
		workload.ProducerConsumer(4, false), workload.ProducerConsumer(4, true),
		workload.LockedCounter(3, 4, 1), workload.LockedCounter(3, 4, -1),
		workload.Dekker(3), workload.DekkerFenced(3), workload.FlagHandoff(4),
		workload.TasPublish(3), workload.WriteBurst(3, 4, 2), workload.RaceChain(4),
		workload.BarrierPhases(3),
		workload.Random(workload.RandomParams{CPUs: 4, Locks: 2, UnlockedFraction: 0.3, Segments: 60, Seed: 5}),
	} {
		for _, model := range []memmodel.Model{memmodel.SC, memmodel.WO, memmodel.RCsc} {
			check(fmt.Sprintf("%s on %v", w.Name, model), w, model, int64(i), nil)
		}
	}
	ar := trace.NewArena()
	w := workload.LockedCounter(4, 6, 1)
	for seed := int64(0); seed < 200; seed++ {
		check(fmt.Sprintf("locked counter seed %d", seed), w, memmodel.WO, seed, ar)
	}
}

// TestDecodeTextAllocations: the 20,000-event hostile text trace decodes
// in a fixed handful of allocations — the builder's columns and slab
// grow geometrically, and no line allocates. Parsing each line into its
// own Event and field slices took about 101,000.
func TestDecodeTextAllocations(t *testing.T) {
	var text string
	for _, in := range hostileInputs() {
		if strings.HasPrefix(in.name, "20000 events") {
			text = in.text
		}
	}
	if text == "" {
		t.Fatal("hostile input not found")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := trace.DecodeText(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per decode", allocs)
	if allocs >= 1010 {
		t.Errorf("DecodeText allocated %.0f times, want under 1010 (1%% of 101,000)", allocs)
	}
}

// TestWideValuesSurvive: computation and synchronization PCs past 32
// bits, negative ones included, decode unchanged through both codecs and
// re-encode to the same text; the event's compact fields narrow nothing
// a decoder accepts.
func TestWideValuesSurvive(t *testing.T) {
	const pc = 1<<62 + 5
	src := "weakrace-trace 1\nprogram \"wide\"\nmodel WO\nseed -9\ncpus 2\nlocations 4\n" +
		"cpu 0\n" +
		fmt.Sprintf("comp reads=1@%d writes=3@%d\n", pc, pc+1) +
		fmt.Sprintf("sync release loc=2 seq=0 pc=%d\n", pc+2) +
		"cpu 1\n" +
		fmt.Sprintf("sync acquire loc=2 seq=1 pc=%d paired=0:1/release\n", -pc) +
		"end\n"
	tr, err := trace.DecodeText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.ReadPCs(0); !slices.Equal(got, []int{pc}) {
		t.Errorf("read PCs %v, want [%d]", got, pc)
	}
	if got := tr.WritePCs(0); !slices.Equal(got, []int{pc + 1}) {
		t.Errorf("write PCs %v, want [%d]", got, pc+1)
	}
	if got := tr.Event(1).PC(); got != pc+2 {
		t.Errorf("sync PC %d, want %d", got, pc+2)
	}
	if got := tr.Event(2).PC(); got != -pc {
		t.Errorf("sync PC %d, want %d", got, -pc)
	}
	var text bytes.Buffer
	if err := trace.EncodeText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if text.String() != src {
		t.Errorf("text re-encoding differs:\n%s\nwant\n%s", text.String(), src)
	}
	var bin bytes.Buffer
	if err := trace.Encode(&bin, tr); err != nil {
		t.Fatal(err)
	}
	again, err := trace.Decode(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Fatalf("binary round trip changed the trace:\n%s", diffTraces(tr, again))
	}
}
