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
	"slices"

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

// pcList writes one PC entry per location of s.
func (cw *countingWriter) pcList(s Locs, pcs []int) {
	cw.uvarint(uint64(len(s)))
	for k, loc := range s {
		cw.uvarint(uint64(loc))
		cw.uvarint(uint64(pcs[k]))
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
func Encode(w io.Writer, t *Trace) error { return encode(w, t, -1) }

// encode writes the trace in binary form; with only >= 0, every stream
// but processor only's is written empty (a file-set part).
func encode(w io.Writer, t *Trace, only int) error {
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
	for c := 0; c < t.NumCPUs; c++ {
		from, to := t.Stream(c)
		if only >= 0 && c != only {
			to = from
		}
		cw.uvarint(uint64(to - from))
		for i := from; i < to; i++ {
			ev := &t.events[i]
			cw.byte(byte(ev.kind))
			if ev.kind == Comp {
				reads, writes := t.Reads(i), t.Writes(i)
				cw.set(reads)
				cw.set(writes)
				cw.pcList(reads, t.ReadPCs(i))
				cw.pcList(writes, t.WritePCs(i))
				continue
			}
			cw.byte(byte(ev.role))
			cw.uvarint(uint64(ev.at))
			cw.uvarint(uint64(ev.seq))
			cw.uvarint(uint64(ev.pc))
			if ev.observed >= 0 {
				ref := t.Ref(int(ev.observed))
				cw.byte(1)
				cw.uvarint(uint64(ref.CPU))
				cw.uvarint(uint64(ref.Index))
				cw.byte(byte(ev.observedRole))
			} else {
				cw.byte(0)
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
	b   []byte
	off int
	err error
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

// set appends a delta-encoded access set to b's columns, each location
// with PC 0, and returns its size. Elements must lie in
// [0, numLocations); one out of range fails the read with a
// *LocationError. A repeated element (a zero delta after the first) is
// dropped.
func (rd *reader) set(b *Builder, numLocations int) int {
	n := rd.count(setCount)
	if n == 0 || rd.err != nil {
		return 0
	}
	from := len(b.t.locs)
	v := uint64(0)
	for i := 0; i < n; i++ {
		d := rd.uvarint()
		if rd.err != nil {
			return 0
		}
		// v < numLocations, so this tests v+d ≥ numLocations without
		// overflowing.
		if d >= uint64(numLocations)-v {
			sum, carry := bits.Add64(v, d, 0)
			if carry != 0 {
				sum = math.MaxUint64
			}
			rd.err = &LocationError{Loc: sum, NumLocations: numLocations}
			return 0
		}
		if d == 0 && i > 0 {
			continue
		}
		v += d
		b.t.locs = append(b.t.locs, program.Addr(v))
		b.t.pcs = append(b.t.pcs, 0)
	}
	return len(b.t.locs) - from
}

// pcList reads one access mode's PC list into the PC column entries of
// the set at locs[at:at+n]. An entry whose location is not in the set is
// dropped; a location listed twice keeps its last PC; a set location
// without an entry keeps PC 0.
func (rd *reader) pcList(b *Builder, at, n int) {
	k := rd.count(pcCount)
	if rd.err != nil {
		return
	}
	set, pcs := b.t.locs[at:at+n], b.t.pcs[at:at+n]
	for i := 0; i < k; i++ {
		loc, pc := program.Addr(rd.uvarint()), int(rd.uvarint())
		if rd.err != nil {
			return
		}
		// Lists written by Encode follow the set's order.
		j := i
		if j >= n || set[j] != loc {
			var ok bool
			if j, ok = slices.BinarySearch(set, loc); !ok {
				continue
			}
		}
		pcs[j] = pc
	}
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
	rd, h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(h)
	if err := rd.streams(b, -1); err != nil {
		return nil, err
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if reg := telemetry.Default(); reg.Enabled() {
		reg.Counter("trace.decode.calls").Inc()
		reg.Counter("trace.decode.bytes").Add(int64(len(data)))
		reg.Counter("trace.decode.events").Add(int64(t.NumEvents()))
	}
	return t, nil
}

// decodeHeader checks the magic and reads a binary trace's header,
// leaving the reader at the first processor's stream.
func decodeHeader(data []byte) (*reader, Header, error) {
	var h Header
	if len(data) < len(magic) {
		return nil, h, fmt.Errorf("trace: decode: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(magic)]) != magic {
		return nil, h, fmt.Errorf("trace: decode: bad magic %q", data[:len(magic)])
	}
	rd := &reader{b: data, off: len(magic)}
	h.ProgramName = rd.str()
	h.Model = memmodel.Model(rd.uvarint())
	h.Seed = rd.varint()
	h.NumCPUs = rd.count(cpuCount)
	h.NumLocations = rd.count(locationCount)
	if rd.err != nil {
		return nil, h, fmt.Errorf("trace: decode header: %w", rd.err)
	}
	return rd, h, nil
}

// streams decodes b's NumCPUs event streams into b. With only >= 0, a
// processor other than only carrying events fails the decode (a file-set
// part holds one processor's stream).
func (rd *reader) streams(b *Builder, only int) error {
	h := &b.t.Header
	for c := 0; c < h.NumCPUs; c++ {
		n := rd.count(eventCount)
		if rd.err != nil {
			return fmt.Errorf("trace: decode: %w", rd.err)
		}
		if n == 0 {
			continue
		}
		if only >= 0 && c != only {
			return &foreignError{cpu: c}
		}
		rd.reserve(b, c, n)
		for i := 0; i < n; i++ {
			switch kind := EventKind(rd.byte()); kind {
			case Comp:
				at := len(b.t.locs)
				nr := rd.set(b, h.NumLocations)
				nw := rd.set(b, h.NumLocations)
				rd.pcList(b, at, nr)
				rd.pcList(b, at+nr, nw)
				b.comp(c, at, nr, nw)
			case Sync:
				s := SyncEvent{Observed: NoEvent}
				s.Role = memmodel.Role(rd.byte())
				s.Loc = program.Addr(rd.uvarint())
				s.SyncSeq = int(rd.uvarint())
				s.PC = int(rd.uvarint())
				if rd.byte() == 1 {
					cpu, index := rd.uvarint(), rd.uvarint()
					if rd.err == nil && (cpu >= uint64(h.NumCPUs) || index >= eventCount.limit) {
						return fmt.Errorf("trace: decode: P%d event %d: pairing reference (cpu %d, index %d) out of range", c+1, i, cpu, index)
					}
					s.Observed = EventRef{CPU: int(cpu), Index: int(index)}
					s.ObservedRole = memmodel.Role(rd.byte())
				}
				b.Sync(c, s)
			default:
				if rd.err == nil {
					return fmt.Errorf("trace: decode: P%d event %d: unknown kind %d", c+1, i, kind)
				}
			}
			if rd.err != nil {
				return fmt.Errorf("trace: decode: %w", rd.err)
			}
		}
	}
	return nil
}

// reserve sizes b's event slab and columns for processor c's n events
// and the streams after it, guessing from the streams decoded so far
// with an eighth to spare, so a balanced trace grows each of them about
// once rather than by doubling. What the bytes left can encode caps
// both guesses — one event or one location per byte at most, so one
// dense event cannot size the columns for every later processor — and
// the columns are left to append until one stream has shown their size
// per event.
func (rd *reader) reserve(b *Builder, c, n int) {
	cpus, t := b.t.NumCPUs, &b.t
	have := len(t.events)
	need := have + n
	if need > cap(t.events) {
		guess := need * cpus / (c + 1)
		if c+1 < cpus {
			guess += guess / 8
		}
		guess = min(guess, need+(len(rd.b)-rd.off)/eventCount.minBytes)
		t.events = slices.Grow(t.events, guess-have)
	}
	if have > 0 {
		guess := len(t.locs) * cap(t.events) / have
		guess = min(guess, len(t.locs)+(len(rd.b)-rd.off)/setCount.minBytes)
		if guess > cap(t.locs) {
			t.locs = slices.Grow(t.locs, guess-len(t.locs))
			t.pcs = slices.Grow(t.pcs, guess-len(t.pcs))
		}
	}
}

// foreignError reports a file-set part carrying events for a processor
// other than its own.
type foreignError struct{ cpu int }

func (e *foreignError) Error() string { return fmt.Sprintf("events for processor %d", e.cpu) }

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
