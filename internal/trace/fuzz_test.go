package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// seedCorpus returns encoded traces to seed the fuzzers.
func seedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, w := range []*workload.Workload{
		workload.Figure1a(), workload.Figure1b(), workload.Figure2(),
	} {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, trace.FromExecution(r.Exec)); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// hostileInput is a small encoded trace crafted to make a decoder panic
// or allocate far beyond its size; the decoder must instead return an
// error of the given type.
type hostileInput struct {
	name   string
	binary []byte
	text   string // "" when the input has no text form
	// locErr wants a *trace.LocationError, countErr a *trace.CountError
	// for wantCount; neither wants a *trace.InvalidError.
	locErr     bool
	wantLoc    uint64
	declaredLs int
	countErr   bool
	wantCount  string
}

// hostileInputs returns the crafted inputs: an access-set element of
// 2^63 (the binary decoder panicked in bitset.Add), one of 2^33 (a 1 GB
// bitset before validation ran), 20,000 empty computation events
// declaring 2^20 locations (two pre-sized 128 KB bitsets per event, 5 GB
// in all), each in both encodings; and, in the binary encoding only,
// whose counts the text form does not declare, a read-PC list declaring
// 2^20 entries (the decoder pre-sized a 38 MB map before reading any)
// and 2^26 events with a 20-byte body (an event slab sized from that
// count would take 9 GB).
func hostileInputs() []hostileInput {
	header := func(numLocs, events uint64) []byte {
		b := []byte("WRT1")
		b = binary.AppendUvarint(b, 0) // program name ""
		b = binary.AppendUvarint(b, 0) // model
		b = binary.AppendVarint(b, 0)  // seed
		b = binary.AppendUvarint(b, 1) // CPUs
		b = binary.AppendUvarint(b, numLocs)
		return binary.AppendUvarint(b, events)
	}
	oneRead := func(loc uint64) []byte {
		b := header(4, 1)
		b = append(b, byte(trace.Comp))
		b = binary.AppendUvarint(b, 1) // reads: one element
		b = binary.AppendUvarint(b, loc)
		return append(b, 0, 0, 0) // no writes, empty PC maps
	}
	textHeader := func(numLocs int) string {
		return fmt.Sprintf("weakrace-trace 1\nprogram \"x\"\nmodel WO\nseed 0\ncpus 1\nlocations %d\ncpu 0\n", numLocs)
	}
	empty := header(1<<20, 20000)
	for i := 0; i < 20000; i++ {
		empty = append(empty, byte(trace.Comp), 0, 0, 0, 0)
	}
	pcList := header(4, 1)
	pcList = append(pcList, byte(trace.Comp), 1, 0, 0) // reads {0}, no writes
	pcList = binary.AppendUvarint(pcList, 1<<20)       // read PCs: 2^20 entries declared
	manyEvents := header(4, 1<<26)
	for i := 0; i < 4; i++ {
		manyEvents = append(manyEvents, byte(trace.Comp), 0, 0, 0, 0)
	}
	return []hostileInput{
		{name: "element 2^63", binary: oneRead(1 << 63), locErr: true, wantLoc: 1 << 63, declaredLs: 4,
			text: textHeader(4) + "comp reads=9223372036854775807@0 writes=\nend\n"},
		{name: "element 2^33", binary: oneRead(1 << 33), locErr: true, wantLoc: 1 << 33, declaredLs: 4,
			text: textHeader(4) + "comp reads=8589934592@0 writes=\nend\n"},
		{name: "20000 empty events over 2^20 locations", binary: empty,
			text: textHeader(1<<20) + strings.Repeat("comp reads= writes=\n", 20000) + "end\n"},
		{name: "2^20 PC entries declared", binary: pcList, countErr: true, wantCount: "pc list"},
		{name: "2^26 events over 20 bytes", binary: manyEvents, countErr: true, wantCount: "event"},
	}
}

// TestDecodeHostileInputs: each crafted input ends in a typed error on
// both codecs, with under 16 MB allocated.
func TestDecodeHostileInputs(t *testing.T) {
	const budget = 16 << 20
	for _, in := range hostileInputs() {
		type codec struct {
			name   string
			decode func() error
		}
		codecs := []codec{{"binary", func() error { _, err := trace.Decode(bytes.NewReader(in.binary)); return err }}}
		if in.text != "" {
			codecs = append(codecs, codec{"text", func() error { _, err := trace.DecodeText(strings.NewReader(in.text)); return err }})
		}
		for _, codec := range codecs {
			t.Run(in.name+"/"+codec.name, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := codec.decode()
				runtime.ReadMemStats(&after)
				alloc := after.TotalAlloc - before.TotalAlloc
				t.Logf("allocated %d bytes", alloc)
				if alloc > budget {
					t.Errorf("allocated %d bytes, budget %d", alloc, budget)
				}
				if in.locErr {
					var le *trace.LocationError
					if !errors.As(err, &le) {
						t.Fatalf("error %v, want a *trace.LocationError", err)
					}
					want := in.wantLoc
					if codec.name == "text" && want == 1<<63 {
						want = 1<<63 - 1 // the largest location the text form can spell
					}
					if le.Loc != want || le.NumLocations != in.declaredLs {
						t.Errorf("LocationError %+v, want location %d of %d", *le, want, in.declaredLs)
					}
					return
				}
				if in.countErr {
					var ce *trace.CountError
					if !errors.As(err, &ce) || ce.What != in.wantCount {
						t.Fatalf("error %v, want a *trace.CountError for the %s count", err, in.wantCount)
					}
					return
				}
				var ie *trace.InvalidError
				if !errors.As(err, &ie) || !strings.Contains(err.Error(), "empty computation event") {
					t.Fatalf("error %v, want a *trace.InvalidError for an empty computation event", err)
				}
			})
		}
	}
}

// FuzzDecode: arbitrary bytes must never panic the binary decoder, and
// anything it accepts must survive validation and analysis (which may
// refuse a trace past core.MaxClockCells, and only with a
// *core.LimitError), and
// re-encode to bytes that decode to an equal trace and re-encode to
// themselves.
func FuzzDecode(f *testing.F) {
	for _, seed := range seedCorpus(f) {
		f.Add(seed)
	}
	for _, in := range hostileInputs() {
		f.Add(in.binary)
	}
	f.Add([]byte("WRT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid trace: %v", err)
		}
		var le *core.LimitError
		if _, err := core.Analyze(tr, core.Options{SkipValidate: true}); err != nil && !errors.As(err, &le) {
			t.Fatalf("analysis failed on decoded trace: %v", err)
		}
		var enc bytes.Buffer
		if err := trace.Encode(&enc, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		again, err := trace.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("re-encoded trace decodes differently:\n%s", diffTraces(tr, again))
		}
		var enc2 bytes.Buffer
		if err := trace.Encode(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// diffTraces describes the first difference between two traces.
func diffTraces(a, b *trace.Trace) string {
	if a.ProgramName != b.ProgramName || a.Model != b.Model || a.Seed != b.Seed ||
		a.NumCPUs != b.NumCPUs || a.NumLocations != b.NumLocations || len(a.PerCPU) != len(b.PerCPU) {
		return fmt.Sprintf("headers %q/%v/%d/%d/%d vs %q/%v/%d/%d/%d",
			a.ProgramName, a.Model, a.Seed, a.NumCPUs, a.NumLocations,
			b.ProgramName, b.Model, b.Seed, b.NumCPUs, b.NumLocations)
	}
	for c := range a.PerCPU {
		if len(a.PerCPU[c]) != len(b.PerCPU[c]) {
			return fmt.Sprintf("P%d: %d vs %d events", c+1, len(a.PerCPU[c]), len(b.PerCPU[c]))
		}
		for i, ev := range a.PerCPU[c] {
			if !reflect.DeepEqual(ev, b.PerCPU[c][i]) {
				return fmt.Sprintf("P%d.%d: %+v vs %+v", c+1, i, *ev, *b.PerCPU[c][i])
			}
		}
	}
	return "PerCPU nil/empty mismatch"
}

// FuzzDecodeText: same contract for the text codec.
func FuzzDecodeText(f *testing.F) {
	for _, w := range []*workload.Workload{workload.Figure1b(), workload.Figure2()} {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.EncodeText(&buf, trace.FromExecution(r.Exec)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("weakrace-trace 1\n")
	f.Add("")
	for _, in := range hostileInputs() {
		if in.text != "" {
			f.Add(in.text)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := trace.DecodeText(bytes.NewReader([]byte(src)))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("DecodeText accepted an invalid trace: %v", err)
		}
	})
}

// streamSeedCorpus returns framed op streams to seed the stream fuzzer.
func streamSeedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for i, w := range []*workload.Workload{
		workload.Figure1a(), workload.Figure2(),
		workload.Random(workload.RandomParams{Seed: 4, UnlockedFraction: 0.5}),
	} {
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: int64(i), InitMemory: w.InitMemory})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.StreamExecution(&buf, r.Exec, 8); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzStreamDecode: arbitrary bytes must never panic the incremental
// batch decoder, and every operation it accepts must satisfy the framing
// invariants (header-bounded CPU/location, backward observed-write
// references, consecutive IDs) — the properties the wrserve daemon's
// per-stream isolation depends on.
func FuzzStreamDecode(f *testing.F) {
	for _, seed := range streamSeedCorpus(f) {
		f.Add(seed)
	}
	f.Add([]byte("WRS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		hdr := sr.Header()
		var ops []sim.MemOp
		for {
			before := len(ops)
			ops, err = sr.Next(ops)
			if err != nil {
				return
			}
			if len(ops) == before {
				t.Fatal("Next succeeded without decoding any operation")
			}
			for i := before; i < len(ops); i++ {
				op := ops[i]
				if op.ID != i {
					t.Fatalf("op %d decoded with ID %d", i, op.ID)
				}
				if op.CPU < 0 || op.CPU >= hdr.NumCPUs {
					t.Fatalf("op %d: CPU %d escaped header bound %d", i, op.CPU, hdr.NumCPUs)
				}
				if int(op.Loc) < 0 || int(op.Loc) >= hdr.NumLocations {
					t.Fatalf("op %d: location %d escaped header bound %d", i, op.Loc, hdr.NumLocations)
				}
				if op.ObservedWrite < sim.InitialWrite || op.ObservedWrite >= op.ID {
					t.Fatalf("op %d: non-causal observed write %d", i, op.ObservedWrite)
				}
			}
		}
	})
}
