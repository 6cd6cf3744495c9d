package trace

// Incremental stream framing for the wrserve daemon. Where the WRT1 file
// format is written once, whole, after the run, a WRS1 stream is the wire
// form of an execution in flight: the header goes out once when the
// connection opens, then operations follow in issue order as
// length-prefixed batches the server can decode, validate, and feed to
// its incremental detector without ever holding the full trace.
//
//	magic "WRS1"
//	header: name, model, seed, numCPUs, numLocations,
//	        traceID, parentSpan                        (WRT1 field codec)
//	batch*: uvarint payloadBytes > 0, then payload:
//	          uvarint opCount, then per op:
//	            kind byte, cpu, pc, loc (uvarints),
//	            value, observedWrite, syncSeq (zig-zag varints)
//	end:    uvarint 0
//
// Operation IDs are implicit: the n-th operation on the stream has ID n,
// which is exactly Execution.Ops order, so observedWrite back-references
// (always to earlier operations) resolve against what the receiver has
// already seen. The scheduler-internal fields of sim.MemOp (Step,
// CommitStep, Speculative) deliberately do not travel: the detector does
// not consume them, and the replay seed in the header recovers them
// offline when needed.
//
// The length prefix is the error-isolation boundary: the receiver reads
// a batch fully before decoding it, so a lying length, a truncated
// payload, or garbage inside one client's batch surfaces as that
// stream's error and can never desynchronize another connection.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
	"weakrace/internal/sim"
)

const streamMagic = "WRS1"

// StreamBatchLimit bounds one batch's payload size; StreamOpsLimit bounds
// the operations in one batch. Both guard the server's per-batch
// allocation against corrupt or hostile length prefixes.
const (
	StreamBatchLimit = 1 << 24
	StreamOpsLimit   = 1 << 20
)

// StreamHeader identifies the execution a stream carries — the same
// fields the WRT1 file header records, which double as the replay seed's
// identity when the server's window retires events.
type StreamHeader struct {
	ProgramName  string
	Model        memmodel.Model
	Seed         int64
	NumCPUs      int
	NumLocations int

	// TraceID and ParentSpan carry the client's trace context so the
	// server can continue the trace the client started: per-batch server
	// spans land under the same trace ID the client prints, and
	// /trace/{stream} on the server joins with the client's own latency
	// summary. Zero means untraced — servers then mint their own ID.
	TraceID    uint64
	ParentSpan uint64
}

// StreamWriter frames an operation stream onto w: header once at
// construction, then WriteBatch per batch, then Close for the
// end-of-stream marker. Not safe for concurrent use.
type StreamWriter struct {
	w       *bufio.Writer
	payload bytes.Buffer
	pw      *bufio.Writer
	cw      *countingWriter
	wrote   int // operations framed so far (the next op's implicit ID)
	closed  bool
}

// NewStreamWriter writes the stream header and returns the writer.
func NewStreamWriter(w io.Writer, h StreamHeader) (*StreamWriter, error) {
	sw := &StreamWriter{w: bufio.NewWriter(w)}
	sw.pw = bufio.NewWriter(&sw.payload)
	sw.cw = &countingWriter{w: sw.pw}
	if _, err := sw.w.WriteString(streamMagic); err != nil {
		return nil, fmt.Errorf("trace: stream encode: %w", err)
	}
	hw := &countingWriter{w: sw.w}
	hw.str(h.ProgramName)
	hw.uvarint(uint64(h.Model))
	hw.varint(h.Seed)
	hw.uvarint(uint64(h.NumCPUs))
	hw.uvarint(uint64(h.NumLocations))
	hw.uvarint(h.TraceID)
	hw.uvarint(h.ParentSpan)
	if hw.err != nil {
		return nil, fmt.Errorf("trace: stream encode: %w", hw.err)
	}
	if err := sw.w.Flush(); err != nil {
		return nil, fmt.Errorf("trace: stream encode: %w", err)
	}
	return sw, nil
}

// WriteBatch frames ops as one length-prefixed batch and flushes it onto
// the wire. Ops must continue the stream's issue order: the first op of
// the first batch has ID 0, and IDs are consecutive across batches.
func (sw *StreamWriter) WriteBatch(ops []sim.MemOp) error {
	if sw.closed {
		return fmt.Errorf("trace: stream encode: write after Close")
	}
	if len(ops) == 0 {
		return nil
	}
	if len(ops) > StreamOpsLimit {
		return fmt.Errorf("trace: stream encode: batch of %d ops exceeds limit %d", len(ops), StreamOpsLimit)
	}
	sw.payload.Reset()
	sw.pw.Reset(&sw.payload)
	cw := sw.cw
	cw.err = nil
	cw.uvarint(uint64(len(ops)))
	for _, op := range ops {
		if op.ID != sw.wrote {
			return fmt.Errorf("trace: stream encode: op ID %d breaks issue order (want %d)", op.ID, sw.wrote)
		}
		sw.wrote++
		cw.byte(byte(op.Kind))
		cw.uvarint(uint64(op.CPU))
		cw.uvarint(uint64(op.PC))
		cw.uvarint(uint64(op.Loc))
		cw.varint(op.Value)
		cw.varint(int64(op.ObservedWrite))
		cw.varint(int64(op.SyncSeq))
	}
	if cw.err == nil {
		cw.err = sw.pw.Flush()
	}
	if cw.err != nil {
		return fmt.Errorf("trace: stream encode: %w", cw.err)
	}
	if sw.payload.Len() > StreamBatchLimit {
		return fmt.Errorf("trace: stream encode: batch payload %d bytes exceeds limit %d", sw.payload.Len(), StreamBatchLimit)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(sw.payload.Len()))
	if _, err := sw.w.Write(lenBuf[:n]); err != nil {
		return fmt.Errorf("trace: stream encode: %w", err)
	}
	if _, err := sw.w.Write(sw.payload.Bytes()); err != nil {
		return fmt.Errorf("trace: stream encode: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: stream encode: %w", err)
	}
	return nil
}

// Close writes the end-of-stream marker and flushes. It does not close
// the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.w.WriteByte(0); err != nil {
		return fmt.Errorf("trace: stream encode: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: stream encode: %w", err)
	}
	return nil
}

// StreamReader decodes a framed operation stream: header at
// construction, then Next per batch until io.EOF (clean end marker).
type StreamReader struct {
	r       *bufio.Reader
	hdr     StreamHeader
	payload []byte
	nextID  int
}

// ErrStreamTruncated reports a stream that ended without its
// end-of-stream marker — a vanished client, distinguishable from a clean
// close.
var ErrStreamTruncated = fmt.Errorf("trace: stream truncated before end-of-stream marker")

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{r: bufio.NewReader(r)}
	var mg [4]byte
	if _, err := io.ReadFull(sr.r, mg[:]); err != nil {
		return nil, fmt.Errorf("trace: stream decode: %w", err)
	}
	if string(mg[:]) != streamMagic {
		return nil, fmt.Errorf("trace: stream decode: bad magic %q", mg)
	}
	rd := &headerReader{r: sr.r}
	sr.hdr.ProgramName = rd.str()
	sr.hdr.Model = memmodel.Model(rd.uvarint())
	sr.hdr.Seed = rd.varint()
	sr.hdr.NumCPUs = rd.count(cpuCount)
	sr.hdr.NumLocations = rd.count(locationCount)
	sr.hdr.TraceID = rd.uvarint()
	sr.hdr.ParentSpan = rd.uvarint()
	if rd.err != nil {
		return nil, fmt.Errorf("trace: stream decode header: %w", rd.err)
	}
	if sr.hdr.NumCPUs <= 0 || sr.hdr.NumLocations <= 0 {
		return nil, fmt.Errorf("trace: stream decode header: %d CPUs / %d locations", sr.hdr.NumCPUs, sr.hdr.NumLocations)
	}
	return sr, nil
}

// headerReader reads the WRS1 header's fields straight off the
// connection: unlike a WRT1 file, a stream cannot be read to its end
// before its header is decoded. Counts go through the WRT1 codec's
// limits; the input's size is unknown, so only the fixed limits apply.
type headerReader struct {
	r   *bufio.Reader
	err error
}

func (h *headerReader) uvarint() uint64 {
	if h.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(h.r)
	h.err = err
	return v
}

func (h *headerReader) varint() int64 {
	if h.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(h.r)
	h.err = err
	return v
}

func (h *headerReader) count(k countKind) int {
	v := h.uvarint()
	if h.err == nil {
		h.err = k.check(v, -1)
	}
	if h.err != nil {
		return 0
	}
	return int(v)
}

func (h *headerReader) str() string {
	n := h.count(stringCount)
	if h.err != nil {
		return ""
	}
	buf := make([]byte, n)
	_, h.err = io.ReadFull(h.r, buf)
	return string(buf)
}

// Header returns the stream's header.
func (sr *StreamReader) Header() StreamHeader { return sr.hdr }

// Decoded returns the number of operations decoded so far.
func (sr *StreamReader) Decoded() int { return sr.nextID }

// Next reads one batch, appending its operations to ops (which may be
// nil; pass a truncated previous result to reuse its backing array). It
// returns io.EOF after the clean end-of-stream marker,
// ErrStreamTruncated if the stream ends mid-frame, and a decode error if
// the batch is malformed. Every returned operation is validated against
// the header: CPU and location in range, kind known, back-references to
// already-decoded operations only.
func (sr *StreamReader) Next(ops []sim.MemOp) ([]sim.MemOp, error) {
	payloadLen, err := binary.ReadUvarint(sr.r)
	if err == io.EOF {
		return ops, ErrStreamTruncated
	}
	if err != nil {
		return ops, fmt.Errorf("trace: stream decode: %w", err)
	}
	if payloadLen == 0 {
		return ops, io.EOF
	}
	if payloadLen > StreamBatchLimit {
		return ops, fmt.Errorf("trace: stream decode: batch payload %d bytes exceeds limit %d", payloadLen, StreamBatchLimit)
	}
	if cap(sr.payload) < int(payloadLen) {
		sr.payload = make([]byte, payloadLen)
	}
	buf := sr.payload[:payloadLen]
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ops, ErrStreamTruncated
		}
		return ops, fmt.Errorf("trace: stream decode: %w", err)
	}
	return sr.decodeBatch(ops, buf)
}

func (sr *StreamReader) decodeBatch(ops []sim.MemOp, buf []byte) ([]sim.MemOp, error) {
	pos := 0
	uvar := func() (uint64, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: stream decode: batch op %d truncated mid-event", sr.nextID)
		}
		pos += n
		return v, nil
	}
	svar := func() (int64, error) {
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: stream decode: batch op %d truncated mid-event", sr.nextID)
		}
		pos += n
		return v, nil
	}
	countU, err := uvar()
	if err != nil {
		return ops, err
	}
	if countU == 0 || countU > StreamOpsLimit {
		return ops, fmt.Errorf("trace: stream decode: batch op count %d out of range", countU)
	}
	for i := 0; i < int(countU); i++ {
		if pos >= len(buf) {
			return ops, fmt.Errorf("trace: stream decode: batch truncated mid-event at op %d", sr.nextID)
		}
		kind := sim.OpKind(buf[pos])
		pos++
		cpu, err := uvar()
		if err != nil {
			return ops, err
		}
		pc, err := uvar()
		if err != nil {
			return ops, err
		}
		loc, err := uvar()
		if err != nil {
			return ops, err
		}
		value, err := svar()
		if err != nil {
			return ops, err
		}
		observed, err := svar()
		if err != nil {
			return ops, err
		}
		syncSeq, err := svar()
		if err != nil {
			return ops, err
		}
		op := sim.MemOp{
			ID:            sr.nextID,
			CPU:           int(cpu),
			PC:            int(pc),
			Kind:          kind,
			Loc:           program.Addr(loc),
			Value:         value,
			ObservedWrite: int(observed),
			SyncSeq:       int(syncSeq),
		}
		if err := sr.validate(op); err != nil {
			return ops, err
		}
		sr.nextID++
		ops = append(ops, op)
	}
	if pos != len(buf) {
		return ops, fmt.Errorf("trace: stream decode: batch has %d trailing bytes", len(buf)-pos)
	}
	return ops, nil
}

func (sr *StreamReader) validate(op sim.MemOp) error {
	switch op.Kind {
	case sim.OpDataRead, sim.OpDataWrite, sim.OpAcquireRead, sim.OpReleaseWrite, sim.OpSyncWriteOther:
	default:
		return fmt.Errorf("trace: stream decode: op %d: unknown kind %d", op.ID, int(op.Kind))
	}
	if op.CPU < 0 || op.CPU >= sr.hdr.NumCPUs {
		return fmt.Errorf("trace: stream decode: op %d: CPU %d out of range [0,%d)", op.ID, op.CPU, sr.hdr.NumCPUs)
	}
	if int(op.Loc) < 0 || int(op.Loc) >= sr.hdr.NumLocations {
		return fmt.Errorf("trace: stream decode: op %d: location %d out of range [0,%d)", op.ID, op.Loc, sr.hdr.NumLocations)
	}
	if op.ObservedWrite < sim.InitialWrite || op.ObservedWrite >= op.ID {
		return fmt.Errorf("trace: stream decode: op %d: observed write %d is not an earlier operation", op.ID, op.ObservedWrite)
	}
	if op.SyncSeq < -1 {
		return fmt.Errorf("trace: stream decode: op %d: sync seq %d", op.ID, op.SyncSeq)
	}
	return nil
}

// StreamExecution frames a whole execution onto w: header, batches of
// batchSize operations, end marker. It is what wrclient and the tests
// use; batchSize ≤ 0 defaults to 512.
func StreamExecution(w io.Writer, e *sim.Execution, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 512
	}
	sw, err := NewStreamWriter(w, StreamHeader{
		ProgramName:  e.ProgramName,
		Model:        e.Model,
		Seed:         e.Seed,
		NumCPUs:      e.NumCPUs,
		NumLocations: e.NumLocations,
	})
	if err != nil {
		return err
	}
	for start := 0; start < len(e.Ops); start += batchSize {
		end := start + batchSize
		if end > len(e.Ops) {
			end = len(e.Ops)
		}
		if err := sw.WriteBatch(e.Ops[start:end]); err != nil {
			return err
		}
	}
	return sw.Close()
}
