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

// hostileInput is a small encoded trace crafted to make a decoder or the
// analyzer panic or allocate far beyond its size; the decoder must
// instead return an error of the given type or, for a valid trace, the
// trace must decode and analyze.
type hostileInput struct {
	name   string
	binary []byte
	text   string // "" when the input has no text form
	// locErr wants a *trace.LocationError, countErr a *trace.CountError
	// for wantCount, accepted a trace that analyzes to wantRaces data
	// races over wantRaceLocs locations in all; none wants a
	// *trace.InvalidError.
	locErr       bool
	wantLoc      uint64
	declaredLs   int
	countErr     bool
	wantCount    string
	accepted     bool
	wantRaces    int
	wantRaceLocs int
}

// hostileInputs returns the crafted inputs: an access-set element of
// 2^63 (the binary decoder panicked in bitset.Add), one of 2^33 (a 1 GB
// bitset before validation ran), 20,000 empty computation events
// declaring 2^20 locations (two pre-sized 128 KB bitsets per event, 5 GB
// in all), and two valid traces sized to the largest location rather
// than their length, each in both encodings; and, in the binary encoding
// only, whose counts the text form does not declare, a read-PC list
// declaring 2^20 entries (the decoder pre-sized a 38 MB map before
// reading any) and 2^26 events with a 20-byte body (an event slab sized
// from that count would take 9 GB); and 1,024 processors whose first
// event writes 10,000 locations, the rest one empty event each (location
// columns sized by extrapolating the first event's density to every
// processor took 196 MB).
func hostileInputs() []hostileInput {
	return append(rejectedInputs(), acceptedInputs(20000, 10000)...)
}

// fuzzSeedInputs is hostileInputs with the accepted traces cut to 20
// events and 20 locations: the same decoder and sweep paths at a
// fraction of the full-size traces' milliseconds per execution.
func fuzzSeedInputs() []hostileInput {
	return append(rejectedInputs(), acceptedInputs(20, 20)...)
}

// hostileHeader encodes a binary trace header over cpus processors and
// numLocs locations, followed by the first processor's event count.
func hostileHeader(cpus, numLocs, events uint64) []byte {
	b := []byte("WRT1")
	b = binary.AppendUvarint(b, 0) // program name ""
	b = binary.AppendUvarint(b, 0) // model
	b = binary.AppendVarint(b, 0)  // seed
	b = binary.AppendUvarint(b, cpus)
	b = binary.AppendUvarint(b, numLocs)
	return binary.AppendUvarint(b, events)
}

// hostileTextHeader is hostileHeader's text form, up to the first cpu line.
func hostileTextHeader(cpus, numLocs int) string {
	return fmt.Sprintf("weakrace-trace 1\nprogram \"x\"\nmodel WO\nseed 0\ncpus %d\nlocations %d\ncpu 0\n", cpus, numLocs)
}

// acceptedInputs returns two valid traces over 2^20 locations whose
// location values, not their sizes, are large: events computation events
// each reading location 2^20−1 (bit-vector access sets cost 128 KB per
// event, 2.6 GB for 20,000), and two processors with one computation
// event each, both writing the same locs locations just below 2^20 — one
// data race on locs locations (per-location bit-vectors cost 128 KB per
// location, 1.3 GB for 10,000).
func acceptedInputs(events, locs int) []hostileInput {
	const numLocs = 1 << 20
	oneLoc := hostileHeader(1, numLocs, uint64(events))
	var oneLocText strings.Builder
	oneLocText.WriteString(hostileTextHeader(1, numLocs))
	for i := 0; i < events; i++ {
		oneLoc = append(oneLoc, byte(trace.Comp), 1)
		oneLoc = binary.AppendUvarint(oneLoc, numLocs-1)
		oneLoc = append(oneLoc, 0, 0, 0) // no writes, empty PC lists
		fmt.Fprintf(&oneLocText, "comp reads=%d@0 writes=\n", numLocs-1)
	}
	oneLocText.WriteString("end\n")

	wide := hostileHeader(2, numLocs, 1)
	var wideText strings.Builder
	wideText.WriteString(hostileTextHeader(2, numLocs))
	for c := 0; c < 2; c++ {
		if c > 0 {
			wide = binary.AppendUvarint(wide, 1) // P2's event count
			wideText.WriteString("cpu 1\n")
		}
		wide = append(wide, byte(trace.Comp), 0) // no reads
		wide = binary.AppendUvarint(wide, uint64(locs))
		wide = binary.AppendUvarint(wide, uint64(numLocs-locs))
		wideText.WriteString("comp reads= writes=")
		for i := 0; i < locs; i++ {
			if i > 0 {
				wide = append(wide, 1) // delta to the next location
				wideText.WriteByte(',')
			}
			fmt.Fprintf(&wideText, "%d@0", numLocs-locs+i)
		}
		wide = append(wide, 0, 0) // empty PC lists
		wideText.WriteString("\n")
	}
	wideText.WriteString("end\n")
	return []hostileInput{
		{name: fmt.Sprintf("%d events reading location 2^20-1", events), binary: oneLoc, text: oneLocText.String(), accepted: true},
		{name: fmt.Sprintf("two writers of %d locations below 2^20", locs), binary: wide, text: wideText.String(),
			accepted: true, wantRaces: 1, wantRaceLocs: locs},
	}
}

// rejectedInputs returns the hostile inputs the decoders must refuse.
func rejectedInputs() []hostileInput {
	header := func(numLocs, events uint64) []byte { return hostileHeader(1, numLocs, events) }
	oneRead := func(loc uint64) []byte {
		b := header(4, 1)
		b = append(b, byte(trace.Comp))
		b = binary.AppendUvarint(b, 1) // reads: one element
		b = binary.AppendUvarint(b, loc)
		return append(b, 0, 0, 0) // no writes, empty PC maps
	}
	textHeader := func(numLocs int) string { return hostileTextHeader(1, numLocs) }
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
	// P1's one event writes 10,000 locations; 1,023 one-event processors
	// follow, whose empty computation events validation refuses.
	const denseLocs, cpus = 10000, 1024
	dense := hostileHeader(cpus, 1<<20, 1)
	dense = append(dense, byte(trace.Comp), 0) // no reads
	dense = binary.AppendUvarint(dense, denseLocs)
	var denseText strings.Builder
	denseText.WriteString(hostileTextHeader(cpus, 1<<20))
	denseText.WriteString("comp reads= writes=")
	for i := 0; i < denseLocs; i++ {
		dense = append(dense, byte(min(i, 1))) // location 0, then deltas of 1
		if i > 0 {
			denseText.WriteByte(',')
		}
		fmt.Fprintf(&denseText, "%d@0", i)
	}
	dense = append(dense, 0, 0) // empty PC lists
	denseText.WriteString("\n")
	for c := 1; c < cpus; c++ {
		dense = append(dense, 1, byte(trace.Comp), 0, 0, 0, 0)
		fmt.Fprintf(&denseText, "cpu %d\ncomp reads= writes=\n", c)
	}
	denseText.WriteString("end\n")
	return []hostileInput{
		{name: "element 2^63", binary: oneRead(1 << 63), locErr: true, wantLoc: 1 << 63, declaredLs: 4,
			text: textHeader(4) + "comp reads=9223372036854775807@0 writes=\nend\n"},
		{name: "element 2^33", binary: oneRead(1 << 33), locErr: true, wantLoc: 1 << 33, declaredLs: 4,
			text: textHeader(4) + "comp reads=8589934592@0 writes=\nend\n"},
		{name: "20000 empty events over 2^20 locations", binary: empty,
			text: textHeader(1<<20) + strings.Repeat("comp reads= writes=\n", 20000) + "end\n"},
		{name: "2^20 PC entries declared", binary: pcList, countErr: true, wantCount: "pc list"},
		{name: "2^26 events over 20 bytes", binary: manyEvents, countErr: true, wantCount: "event"},
		{name: "1024 processors after one event on 10000 locations", binary: dense, text: denseText.String()},
	}
}

// TestDecodeHostileInputs: each crafted input ends in a typed error on
// both codecs, or, for a valid one, decodes and analyzes, with under
// 16 MB allocated.
func TestDecodeHostileInputs(t *testing.T) {
	const budget = 16 << 20
	for _, in := range hostileInputs() {
		type codec struct {
			name   string
			decode func() (*trace.Trace, error)
		}
		codecs := []codec{{"binary", func() (*trace.Trace, error) { return trace.Decode(bytes.NewReader(in.binary)) }}}
		if in.text != "" {
			codecs = append(codecs, codec{"text", func() (*trace.Trace, error) { return trace.DecodeText(strings.NewReader(in.text)) }})
		}
		for _, codec := range codecs {
			t.Run(in.name+"/"+codec.name, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tr, err := codec.decode()
				var a *core.Analysis
				if err == nil && in.accepted {
					a, err = core.Analyze(tr, core.Options{})
				}
				runtime.ReadMemStats(&after)
				alloc := after.TotalAlloc - before.TotalAlloc
				t.Logf("allocated %d bytes", alloc)
				if alloc > budget {
					t.Errorf("allocated %d bytes, budget %d", alloc, budget)
				}
				if in.accepted {
					if err != nil {
						t.Fatalf("valid trace refused: %v", err)
					}
					locs := 0
					for _, r := range a.Races {
						locs += len(r.Locs)
					}
					if len(a.Races) != in.wantRaces || locs != in.wantRaceLocs {
						t.Errorf("%d races over %d locations, want %d over %d", len(a.Races), locs, in.wantRaces, in.wantRaceLocs)
					}
					return
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
	for _, in := range fuzzSeedInputs() {
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
		if _, err := core.Analyze(tr, core.Options{}); err != nil && !errors.As(err, &le) {
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
	if a.Header != b.Header || a.NumEvents() != b.NumEvents() {
		return fmt.Sprintf("headers %+v (%d events) vs %+v (%d events)", a.Header, a.NumEvents(), b.Header, b.NumEvents())
	}
	for i := range a.NumEvents() {
		if a.Ref(i) != b.Ref(i) {
			return fmt.Sprintf("event %d is %s vs %s", i, a.Ref(i), b.Ref(i))
		}
		if x, y := a.EventString(i), b.EventString(i); x != y ||
			!reflect.DeepEqual(a.ReadPCs(i), b.ReadPCs(i)) || !reflect.DeepEqual(a.WritePCs(i), b.WritePCs(i)) {
			return fmt.Sprintf("%s: %s %v %v vs %s %v %v", a.Ref(i), x, a.ReadPCs(i), a.WritePCs(i), y, b.ReadPCs(i), b.WritePCs(i))
		}
	}
	return "equal events, different representation"
}

// FuzzDecodeText: arbitrary text must never panic the text decoder, and
// anything it accepts must survive validation and re-encode with
// EncodeText to text that decodes to an equal trace and re-encodes to
// itself.
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
	f.Add("weakrace-trace 1\nprogram \"x\"\nmodel WO\nseed 0\ncpus 1\nlocations 4\ncpu 0\n" +
		"comp reads=3@1,1@2,3@4 writes=2@0 reads=1@5\nend\n")
	for _, in := range fuzzSeedInputs() {
		if in.text != "" {
			f.Add(in.text)
		}
	}
	// Processor sections out of order, and revisited: the decoded trace
	// must equal the one its processor-major re-encoding decodes to.
	f.Add("weakrace-trace 1\nprogram \"x\"\nmodel WO\nseed 0\ncpus 2\nlocations 4\n" +
		"cpu 1\ncomp reads=1@0 writes=\ncpu 0\ncomp reads=2@0,3@1 writes=\n" +
		"cpu 1\nsync release loc=0 seq=0 pc=3\ncomp reads= writes=1@4\nend\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := trace.DecodeText(bytes.NewReader([]byte(src)))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("DecodeText accepted an invalid trace: %v", err)
		}
		var enc bytes.Buffer
		if err := trace.EncodeText(&enc, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		again, err := trace.DecodeText(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("re-encoded trace decodes differently:\n%s", diffTraces(tr, again))
		}
		var enc2 bytes.Buffer
		if err := trace.EncodeText(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
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
