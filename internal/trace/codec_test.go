package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/workload"
)

// codecCase is one trace the codec tests round-trip.
type codecCase struct {
	name string
	tr   *Trace
}

// codecCases returns the frozen 60-trace corpus (workload.Corpus(60, 1))
// and traces of the structured and random generators.
func codecCases(t testing.TB) []codecCase {
	t.Helper()
	run := func(w *workload.Workload, model memmodel.Model, seed int64) *Trace {
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		return FromExecution(r.Exec)
	}
	var out []codecCase
	for i, c := range workload.Corpus(60, 1) {
		out = append(out, codecCase{fmt.Sprintf("corpus %d", i), run(c.Workload, c.Model, c.Seed)})
	}
	for i, w := range []*workload.Workload{
		workload.Figure1a(), workload.Figure1b(), workload.Figure2(),
		workload.ProducerConsumer(4, false), workload.LockedCounter(3, 4, 1),
		workload.Dekker(3), workload.FlagHandoff(4), workload.TasPublish(3),
		workload.WriteBurst(3, 4, 2), workload.RaceChain(4), workload.BarrierPhases(3),
		workload.Random(workload.RandomParams{CPUs: 4, Locks: 2, UnlockedFraction: 0.3, Segments: 60, Seed: 5}),
	} {
		out = append(out, codecCase{w.Name, run(w, memmodel.WO, int64(i))})
	}
	return out
}

// Encode(Decode(b)) reproduces b byte for byte, and the decoded trace
// equals the one encoded, PC provenance included.
func TestBinaryCodecRoundTripIsByteIdentical(t *testing.T) {
	for _, c := range codecCases(t) {
		var b bytes.Buffer
		if err := Encode(&b, c.tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := Decode(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertTracesEqual(t, c.tr, got)
		var again bytes.Buffer
		if err := Encode(&again, got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(again.Bytes(), b.Bytes()) {
			t.Fatalf("%s: re-encoding the decoded trace changed its bytes", c.name)
		}
	}
}

// The text and binary codecs decode a trace to the same PC provenance.
func TestTextAndBinaryCodecsAgreeOnPCProvenance(t *testing.T) {
	for _, c := range codecCases(t) {
		var bin, text bytes.Buffer
		if err := Encode(&bin, c.tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := EncodeText(&text, c.tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fromBin, err := Decode(&bin)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fromText, err := DecodeText(&text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertTracesEqual(t, fromBin, fromText)
	}
}

// A PC list out of location order, or naming a location twice, decodes
// to the sorted list with the last entry of each location, as the text
// codec reads the same accesses.
func TestDecodeSortsPCLists(t *testing.T) {
	b := []byte(magic)
	b = append(b, 0, 0, 0, 1, 4, 1)       // name "", model, seed, 1 CPU, 4 locations, 1 event
	b = append(b, byte(Comp), 2, 2, 1, 0) // reads {2, 3}, no writes
	b = append(b, 3, 3, 7, 2, 5, 3, 9)    // read PCs 3@7, 2@5, 3@9
	b = append(b, 0)
	tr, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 9}
	if got := tr.ReadPCs(0); !slices.Equal(tr.Reads(0), Locs{2, 3}) || !slices.Equal(got, want) {
		t.Fatalf("reads %v with PCs %v, want {2, 3} with %v", tr.Reads(0), got, want)
	}
	text, err := DecodeText(strings.NewReader("weakrace-trace 1\nprogram \"\"\nmodel WO\nseed 0\ncpus 1\nlocations 4\ncpu 0\n" +
		"comp reads=3@7,2@5,3@9 writes=\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := text.ReadPCs(0); !slices.Equal(got, want) {
		t.Fatalf("text read PCs %v, want %v", got, want)
	}
}

// A PC list that does not match its access set is normalized to the
// set: a set location without an entry reads PC 0, an entry for a
// location outside the set is dropped. Re-encoding writes the normalized
// list.
func TestDecodeNormalizesPCLists(t *testing.T) {
	b := []byte(magic)
	b = append(b, 0, 0, 0, 1, 8, 1)       // name "", model, seed, 1 CPU, 8 locations, 1 event
	b = append(b, byte(Comp), 2, 2, 1, 0) // reads {2, 3}, no writes
	b = append(b, 2, 3, 7, 6, 4)          // read PCs 3@7, 6@4 (6 is not read)
	b = append(b, 1, 5, 9)                // write PCs 5@9, with no writes
	tr, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.ReadPCs(0); !slices.Equal(got, []int{0, 7}) {
		t.Fatalf("read PCs %v, want [0 7]", got)
	}
	if got := tr.WritePCs(0); got != nil {
		t.Fatalf("write PCs %v, want none", got)
	}
	var enc bytes.Buffer
	if err := Encode(&enc, tr); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(magic), 0, 0, 0, 1, 8, 1, byte(Comp), 2, 2, 1, 0, 2, 2, 0, 3, 7, 0)
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("re-encoded % x, want % x", enc.Bytes(), want)
	}
}

// A pairing reference that does not fit the trace is a decode error:
// an index of 2^63 became a negative int, which panicked validation.
func TestDecodeRejectsOutOfRangePairing(t *testing.T) {
	for _, ref := range []struct{ cpu, index uint64 }{{0, 1 << 63}, {1, 0}, {1 << 63, 0}} {
		b := []byte(magic)
		b = append(b, 0, 0, 0, 1, 4, 2) // name "", model, seed, 1 CPU, 4 locations, 2 events
		b = append(b, byte(Sync), byte(memmodel.RoleRelease), 0, 0, 0, 0)
		b = append(b, byte(Sync), byte(memmodel.RoleAcquire), 0, 1, 0, 1)
		b = binary.AppendUvarint(b, ref.cpu)
		b = binary.AppendUvarint(b, ref.index)
		b = append(b, byte(memmodel.RoleRelease))
		_, err := Decode(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "pairing reference") {
			t.Errorf("reference (cpu %d, index %d): error %v, want an out-of-range pairing reference", ref.cpu, ref.index, err)
		}
	}
}

// BenchmarkDecode decodes a contended 4-CPU trace of about 50k events,
// the size of the postmortem benchmark's median trace.
func BenchmarkDecode(b *testing.B) {
	w := workload.Random(workload.RandomParams{CPUs: 4, Locks: 2, UnlockedFraction: 0.3, Segments: 1540, Seed: 1})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, FromExecution(r.Exec)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
