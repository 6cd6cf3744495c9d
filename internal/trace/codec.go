package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"weakrace/internal/atomicio"
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
//	  comp: reads set, writes set, readPC list, writePC list
//	  sync: role, loc, syncSeq, pc, observed (valid, cpu, index, role)
//
// Sets are encoded as a count followed by delta-encoded ascending values;
// PC lists as a count followed by (location, pc) pairs in location order.

const magic = "WRT1"

type countingWriter struct {
	w   *bufio.Writer
	err error
	// buf is the varint staging area. A stack `var buf [...]byte` would
	// escape into w.Write on every call — one heap allocation per varint,
	// the dominant cost of encoding — so it lives on the writer instead.
	buf [binary.MaxVarintLen64]byte
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

func (cw *countingWriter) set(s Locs) {
	cw.uvarint(uint64(len(s)))
	prev := program.Addr(0)
	for _, v := range s {
		cw.uvarint(uint64(v - prev))
		prev = v
	}
}

func (cw *countingWriter) pcList(p PCs) {
	cw.uvarint(uint64(len(p)))
	for _, e := range p {
		cw.uvarint(uint64(e.Loc))
		cw.uvarint(uint64(e.PC))
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
				cw.pcList(ev.ReadPC)
				cw.pcList(ev.WritePC)
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

// reader decodes the binary format from a byte slice holding the whole
// input. Every field reader is a no-op once err is set, so a decode loop
// checks err once per event instead of per field.
type reader struct {
	b    []byte
	off  int
	err  error
	locs []program.Addr // chunk the events' access sets are carved from
	pcs  []LocPC        // chunk the events' PC lists are carved from
}

func (rd *reader) byte() byte {
	if rd.err != nil {
		return 0
	}
	if rd.off >= len(rd.b) {
		rd.err = io.ErrUnexpectedEOF
		return 0
	}
	c := rd.b[rd.off]
	rd.off++
	return c
}

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

func (rd *reader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	if rd.off < len(rd.b) && rd.b[rd.off] < 0x80 {
		v := rd.b[rd.off]
		rd.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(rd.b[rd.off:])
	if n <= 0 {
		rd.err = io.ErrUnexpectedEOF
		if n < 0 {
			rd.err = errVarintOverflow
		}
		return 0
	}
	rd.off += n
	return v
}

func (rd *reader) varint() int64 {
	ux := rd.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
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

// CountError reports a declared count — of processors, locations,
// events, set elements, PC entries or string bytes — above its limit.
// The binary decoders return it before they allocate anything sized by
// the count.
type CountError struct {
	What  string
	Count uint64
	// Limit is the kind's fixed limit or, when smaller, the most
	// elements the input left after the count could encode.
	Limit uint64
}

func (e *CountError) Error() string {
	return fmt.Sprintf("%s count %d exceeds limit %d", e.What, e.Count, e.Limit)
}

// countKind names a length-prefixed field, its fixed limit, and the
// fewest bytes one of its elements encodes in.
type countKind struct {
	what     string
	limit    uint64
	minBytes int
}

// Per-kind limits guard length-prefixed allocations against corrupt or
// hostile input: the analyzer allocates per-location and per-processor
// state, so these bound its worst-case footprint too. A location count
// sizes nothing in the decoder, so it alone is not capped by the bytes
// left; an event's fewest bytes are an empty computation event's (kind
// and four zero counts).
var (
	cpuCount      = countKind{"cpu", 1 << 16, 1}
	locationCount = countKind{"location", 1 << 20, 0}
	eventCount    = countKind{"event", 1 << 26, 5}
	setCount      = countKind{"set", 1 << 20, 1}
	pcCount       = countKind{"pc list", 1 << 20, 2}
	stringCount   = countKind{"string", 1 << 20, 1}
)

// check reports a declared count v above k's limit or above what left
// bytes of input can encode; left < 0 means the input's size is unknown.
func (k countKind) check(v uint64, left int) error {
	limit := k.limit
	if left >= 0 && k.minBytes > 0 {
		limit = min(limit, uint64(left/k.minBytes))
	}
	if v > limit {
		return &CountError{What: k.what, Count: v, Limit: limit}
	}
	return nil
}

func (rd *reader) count(k countKind) int {
	v := rd.uvarint()
	if rd.err == nil {
		rd.err = k.check(v, len(rd.b)-rd.off)
	}
	if rd.err != nil {
		return 0
	}
	return int(v)
}

func (rd *reader) str() string {
	n := rd.count(stringCount)
	if rd.err != nil {
		return ""
	}
	s := string(rd.b[rd.off : rd.off+n])
	rd.off += n
	return s
}

// set reads a delta-encoded access set whose elements must lie in
// [0, numLocations). An element out of range fails the read with a
// *LocationError. The set is carved from a shared chunk; a repeated
// element (a zero delta after the first) is dropped.
func (rd *reader) set(numLocations int) Locs {
	n := rd.count(setCount)
	if n == 0 || rd.err != nil {
		return nil
	}
	set := carve(&rd.locs, n, locChunk)[:0]
	v := uint64(0)
	for i := 0; i < n; i++ {
		d := rd.uvarint()
		if rd.err != nil {
			return nil
		}
		// v < numLocations, so this tests v+d ≥ numLocations without
		// overflowing.
		if d >= uint64(numLocations)-v {
			sum, carry := bits.Add64(v, d, 0)
			if carry != 0 {
				sum = math.MaxUint64
			}
			rd.err = &LocationError{Loc: sum, NumLocations: numLocations}
			return nil
		}
		if d == 0 && i > 0 {
			continue
		}
		v += d
		set = append(set, program.Addr(v))
	}
	return set[:len(set):len(set)]
}

// pcChunk is how many PC entries one shared allocation holds.
const pcChunk = 4096

// pcList reads an event's PC provenance for one access mode. The lists
// are carved from shared chunks; entries out of location order are
// sorted, the last of a repeated location winning.
func (rd *reader) pcList() PCs {
	n := rd.count(pcCount)
	if n == 0 || rd.err != nil {
		return nil
	}
	p := PCs(carve(&rd.pcs, n, pcChunk))
	sorted := true
	for i := range p {
		p[i] = LocPC{Loc: program.Addr(rd.uvarint()), PC: int(rd.uvarint())}
		if rd.err != nil {
			return nil
		}
		if i > 0 && p[i].Loc <= p[i-1].Loc {
			sorted = false
		}
	}
	if !sorted {
		p = sortPCs(p, false)
	}
	return p
}

// Decode reads a binary trace and validates it.
func Decode(r io.Reader) (*Trace, error) {
	reg := telemetry.Default()
	defer reg.StartSpan("trace.decode").End()
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return decodeValid(data)
}

// readAll reads r to its end into one buffer, sized up front when r
// reports its length (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // +1: the final read that sees EOF needs room
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeValid decodes a whole binary trace held in data and validates it.
func decodeValid(data []byte) (*Trace, error) {
	t, err := decodeNoValidate(data)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", &InvalidError{Err: err})
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("trace.decode.calls").Inc()
		reg.Counter("trace.decode.bytes").Add(int64(len(data)))
		reg.Counter("trace.decode.events").Add(int64(t.NumEvents()))
	}
	return t, nil
}

// decodeNoValidate decodes a binary trace without whole-trace
// validation; per-processor file-set parts need this because their
// pairing references point into other files. Each processor's events are
// carved from one Event slab, sized by the declared count once the bytes
// left have shown it plausible.
func decodeNoValidate(data []byte) (*Trace, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("trace: decode: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: decode: bad magic %q", data[:len(magic)])
	}
	rd := &reader{b: data, off: len(magic)}
	t := &Trace{}
	t.ProgramName = rd.str()
	t.Model = memmodel.Model(rd.uvarint())
	t.Seed = rd.varint()
	t.NumCPUs = rd.count(cpuCount)
	t.NumLocations = rd.count(locationCount)
	if rd.err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", rd.err)
	}
	t.PerCPU = make([][]*Event, t.NumCPUs)
	for c := 0; c < t.NumCPUs; c++ {
		n := rd.count(eventCount)
		if n == 0 {
			continue
		}
		slab := make([]Event, n)
		evs := make([]*Event, n)
		for i := range slab {
			ev := &slab[i]
			evs[i] = ev
			ev.Kind = EventKind(rd.byte())
			ev.Observed = NoEvent
			switch ev.Kind {
			case Comp:
				ev.SyncSeq = -1
				ev.Reads = rd.set(t.NumLocations)
				ev.Writes = rd.set(t.NumLocations)
				ev.ReadPC = rd.pcList()
				ev.WritePC = rd.pcList()
			case Sync:
				ev.Role = memmodel.Role(rd.byte())
				ev.Loc = program.Addr(rd.uvarint())
				ev.SyncSeq = int(rd.uvarint())
				ev.PC = int(rd.uvarint())
				if rd.byte() == 1 {
					cpu, index := rd.uvarint(), rd.uvarint()
					if rd.err == nil && (cpu >= uint64(t.NumCPUs) || index >= eventCount.limit) {
						return nil, fmt.Errorf("trace: decode: P%d event %d: pairing reference (cpu %d, index %d) out of range", c+1, i, cpu, index)
					}
					ev.Observed = EventRef{CPU: int(cpu), Index: int(index)}
					ev.ObservedRole = memmodel.Role(rd.byte())
				}
			default:
				if rd.err == nil {
					return nil, fmt.Errorf("trace: decode: P%d event %d: unknown kind %d", c+1, i, ev.Kind)
				}
			}
			if rd.err != nil {
				return nil, fmt.Errorf("trace: decode: %w", rd.err)
			}
		}
		t.PerCPU[c] = evs
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
	defer telemetry.Default().StartSpan("trace.decode").End()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return decodeValid(data)
}
