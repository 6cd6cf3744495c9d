package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"

	"weakrace/internal/atomicio"
	"weakrace/internal/bitset"
	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/telemetry"
)

// Binary trace format. All integers are unsigned varints (or zig-zag
// varints where negative values occur), written little-endian-first as in
// encoding/binary's varint encoding.
//
//	magic "WRT1"
//	header: name, model, seed, numCPUs, numLocations
//	per CPU: event count, then events:
//	  kind byte
//	  comp: reads set, writes set, readPC map, writePC map
//	  sync: role, loc, syncSeq, pc, observed (valid, cpu, index, role)
//
// Sets are encoded as a count followed by delta-encoded ascending values.

const magic = "WRT1"

type countingWriter struct {
	w   *bufio.Writer
	err error
	// buf is the varint staging area. A stack `var buf [...]byte` would
	// escape into w.Write on every call — one heap allocation per varint,
	// the dominant cost of encoding — so it lives on the writer instead.
	buf  [binary.MaxVarintLen64]byte
	keys []int // pcMap's sorted-keys scratch, reused across events
}

func (cw *countingWriter) byte(b byte) {
	if cw.err == nil {
		cw.err = cw.w.WriteByte(b)
	}
}

func (cw *countingWriter) uvarint(v uint64) {
	if cw.err != nil {
		return
	}
	n := binary.PutUvarint(cw.buf[:], v)
	_, cw.err = cw.w.Write(cw.buf[:n])
}

func (cw *countingWriter) varint(v int64) {
	if cw.err != nil {
		return
	}
	n := binary.PutVarint(cw.buf[:], v)
	_, cw.err = cw.w.Write(cw.buf[:n])
}

func (cw *countingWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	if cw.err == nil {
		_, cw.err = cw.w.WriteString(s)
	}
}

func (cw *countingWriter) set(s *bitset.Set) {
	cw.uvarint(uint64(s.Len()))
	prev := 0
	s.Range(func(v int) bool {
		cw.uvarint(uint64(v - prev))
		prev = v
		return true
	})
}

func (cw *countingWriter) pcMap(m map[program.Addr]int) {
	keys := cw.keys[:0]
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	cw.keys = keys
	cw.uvarint(uint64(len(keys)))
	for _, k := range keys {
		cw.uvarint(uint64(k))
		cw.uvarint(uint64(m[program.Addr(k)]))
	}
}

// byteCounter counts bytes flowing through an io.Writer (codec
// telemetry; only installed when collection is enabled).
type byteCounter struct {
	w io.Writer
	n int64
}

func (b *byteCounter) Write(p []byte) (int, error) {
	n, err := b.w.Write(p)
	b.n += int64(n)
	return n, err
}

// byteCountReader counts bytes consumed from an io.Reader.
type byteCountReader struct {
	r io.Reader
	n int64
}

func (b *byteCountReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// Encode writes the trace in binary form.
func Encode(w io.Writer, t *Trace) error {
	reg := telemetry.Default()
	defer reg.StartSpan("trace.encode").End()
	var bc *byteCounter
	if reg.Enabled() {
		bc = &byteCounter{w: w}
		w = bc
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	cw.str(t.ProgramName)
	cw.uvarint(uint64(t.Model))
	cw.varint(t.Seed)
	cw.uvarint(uint64(t.NumCPUs))
	cw.uvarint(uint64(t.NumLocations))
	for _, evs := range t.PerCPU {
		cw.uvarint(uint64(len(evs)))
		for _, ev := range evs {
			cw.byte(byte(ev.Kind))
			switch ev.Kind {
			case Comp:
				cw.set(ev.Reads)
				cw.set(ev.Writes)
				cw.pcMap(ev.ReadPC)
				cw.pcMap(ev.WritePC)
			case Sync:
				cw.byte(byte(ev.Role))
				cw.uvarint(uint64(ev.Loc))
				cw.uvarint(uint64(ev.SyncSeq))
				cw.uvarint(uint64(ev.PC))
				if ev.Observed.Valid() {
					cw.byte(1)
					cw.uvarint(uint64(ev.Observed.CPU))
					cw.uvarint(uint64(ev.Observed.Index))
					cw.byte(byte(ev.ObservedRole))
				} else {
					cw.byte(0)
				}
			default:
				return fmt.Errorf("trace: encode: unknown event kind %d", ev.Kind)
			}
		}
	}
	if cw.err != nil {
		return fmt.Errorf("trace: encode: %w", cw.err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if bc != nil {
		reg.Counter("trace.encode.calls").Inc()
		reg.Counter("trace.encode.bytes").Add(bc.n)
		reg.Counter("trace.encode.events").Add(int64(t.NumEvents()))
	}
	return nil
}

type reader struct {
	r    *bufio.Reader
	err  error
	vals []int // set's element scratch, reused across sets
}

func (rd *reader) byte() byte {
	if rd.err != nil {
		return 0
	}
	b, err := rd.r.ReadByte()
	rd.err = err
	return b
}

func (rd *reader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(rd.r)
	rd.err = err
	return v
}

func (rd *reader) varint() int64 {
	if rd.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(rd.r)
	rd.err = err
	return v
}

// LocationError reports an encoded access-set location at or beyond the
// trace's declared location count. The decoders return it before they
// allocate anything sized by the location.
type LocationError struct {
	// Loc is the offending location (math.MaxUint64 when the binary
	// codec's delta sum overflows).
	Loc          uint64
	NumLocations int
}

func (e *LocationError) Error() string {
	return fmt.Sprintf("access location %d out of range [0,%d)", e.Loc, e.NumLocations)
}

// InvalidError reports input that decoded but failed Validate. Its
// message is Validate's.
type InvalidError struct{ Err error }

func (e *InvalidError) Error() string { return e.Err.Error() }
func (e *InvalidError) Unwrap() error { return e.Err }

// Per-kind limits guard length-prefixed allocations against corrupt or
// hostile input: the analyzer allocates per-location and per-processor
// state, so these bound its worst-case footprint too.
var maxCounts = map[string]uint64{
	"cpu":      1 << 16,
	"location": 1 << 20,
	"event":    1 << 26,
	"set":      1 << 20,
	"pc map":   1 << 20,
	"string":   1 << 20,
}

func (rd *reader) count(what string) int {
	v := rd.uvarint()
	limit, ok := maxCounts[what]
	if !ok {
		limit = 1 << 26
	}
	if rd.err == nil && v > limit {
		rd.err = fmt.Errorf("%s count %d exceeds limit %d", what, v, limit)
	}
	return int(v)
}

func (rd *reader) str() string {
	n := rd.count("string")
	if rd.err != nil {
		return ""
	}
	buf := make([]byte, n)
	_, rd.err = io.ReadFull(rd.r, buf)
	return string(buf)
}

// set reads a delta-encoded access set whose elements must lie in
// [0, numLocations). An element out of range fails the read with a
// *LocationError before anything is sized by it; the set itself is
// sized from its largest element, not from numLocations.
func (rd *reader) set(numLocations int) *bitset.Set {
	n := rd.count("set")
	vals := rd.vals[:0]
	v := uint64(0)
	for i := 0; i < n && rd.err == nil; i++ {
		d := rd.uvarint()
		if rd.err != nil {
			break
		}
		// v < numLocations, so this tests v+d ≥ numLocations without
		// overflowing.
		if d >= uint64(numLocations)-v {
			sum, carry := bits.Add64(v, d, 0)
			if carry != 0 {
				sum = math.MaxUint64
			}
			rd.err = &LocationError{Loc: sum, NumLocations: numLocations}
			break
		}
		v += d
		vals = append(vals, int(v))
	}
	rd.vals = vals
	return bitset.FromSlice(vals)
}

func (rd *reader) pcMap() map[program.Addr]int {
	n := rd.count("pc map")
	m := make(map[program.Addr]int, n)
	for i := 0; i < n && rd.err == nil; i++ {
		k := program.Addr(rd.uvarint())
		m[k] = int(rd.uvarint())
	}
	return m
}

// Decode reads a binary trace and validates it.
func Decode(r io.Reader) (*Trace, error) {
	reg := telemetry.Default()
	defer reg.StartSpan("trace.decode").End()
	var bc *byteCountReader
	if reg.Enabled() {
		bc = &byteCountReader{r: r}
		r = bc
	}
	t, err := decodeNoValidate(r)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", &InvalidError{Err: err})
	}
	if bc != nil {
		reg.Counter("trace.decode.calls").Inc()
		reg.Counter("trace.decode.bytes").Add(bc.n)
		reg.Counter("trace.decode.events").Add(int64(t.NumEvents()))
	}
	return t, nil
}

// decodeNoValidate reads a binary trace without whole-trace validation;
// per-processor file-set parts need this because their pairing references
// point into other files.
func decodeNoValidate(r io.Reader) (*Trace, error) {
	rd := &reader{r: bufio.NewReader(r)}
	var mg [4]byte
	if _, err := io.ReadFull(rd.r, mg[:]); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if string(mg[:]) != magic {
		return nil, fmt.Errorf("trace: decode: bad magic %q", mg)
	}
	t := &Trace{}
	t.ProgramName = rd.str()
	t.Model = memmodel.Model(rd.uvarint())
	t.Seed = rd.varint()
	t.NumCPUs = rd.count("cpu")
	t.NumLocations = rd.count("location")
	if rd.err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", rd.err)
	}
	t.PerCPU = make([][]*Event, t.NumCPUs)
	for c := 0; c < t.NumCPUs; c++ {
		n := rd.count("event")
		for i := 0; i < n && rd.err == nil; i++ {
			ev := &Event{Kind: EventKind(rd.byte()), Observed: NoEvent, SyncSeq: -1}
			switch ev.Kind {
			case Comp:
				ev.Reads = rd.set(t.NumLocations)
				ev.Writes = rd.set(t.NumLocations)
				ev.ReadPC = rd.pcMap()
				ev.WritePC = rd.pcMap()
			case Sync:
				ev.Role = memmodel.Role(rd.byte())
				ev.Loc = program.Addr(rd.uvarint())
				ev.SyncSeq = int(rd.uvarint())
				ev.PC = int(rd.uvarint())
				if rd.byte() == 1 {
					ev.Observed = EventRef{CPU: int(rd.uvarint()), Index: int(rd.uvarint())}
					ev.ObservedRole = memmodel.Role(rd.byte())
				}
			default:
				return nil, fmt.Errorf("trace: decode: P%d event %d: unknown kind %d", c+1, i, ev.Kind)
			}
			t.PerCPU[c] = append(t.PerCPU[c], ev)
		}
	}
	if rd.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", rd.err)
	}
	return t, nil
}

// WriteFile encodes the trace to path, atomically: the bytes land in a
// temp file in the same directory and are renamed into place only after a
// successful encode, so a crash or encode error never leaves a truncated
// trace that fails decode mid-campaign.
func WriteFile(path string, t *Trace) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Encode(w, t)
	})
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
