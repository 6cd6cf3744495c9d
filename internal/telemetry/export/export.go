// Package export is the detection stack's flight recorder: a structured,
// append-only event log of one analysis run (or one campaign), exported
// as JSONL for programmatic consumption and as Chrome trace-event JSON
// loadable in Perfetto or chrome://tracing.
//
// Where internal/telemetry aggregates (counters, histograms), the flight
// recorder keeps individual records with timestamps and provenance: the
// trace's events, every hb1 edge tagged with its origin (po, so1, or a
// race-partner edge of G′), the detection phases as a timeline, the races
// and partitions found, and — in campaign mode — one summary record per
// seed.
//
// Recording is strictly opt-in and zero-overhead when off: the pipeline
// consults a single recorder pointer (core.Options.Flight,
// campaign.Options.Flight); a nil pointer short-circuits every
// instrumentation site before any work happens, mirroring the telemetry
// registry's atomic Enabled gate. Nothing in the hot paths allocates or
// formats unless a recorder is attached.
package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"weakrace/internal/atomicio"
)

// Record kinds. One Record carries exactly one non-nil payload,
// matching its Kind.
const (
	KindMeta      = "meta"      // analysis header: program, model, seed
	KindEvent     = "event"     // one trace event
	KindEdge      = "edge"      // one hb1/G′ edge with origin
	KindPhase     = "phase"     // one timed detection phase
	KindRace      = "race"      // one detected race
	KindPartition = "partition" // one data-race partition
	KindSeed      = "seed"      // one campaign seed summary
)

// Edge origins.
const (
	OriginPO  = "po"  // program order
	OriginSO1 = "so1" // paired release→acquire synchronization
	// OriginPartner is a race edge of G′ (§4.2) in compressed form: one
	// directed edge from an event to its po-minimal race partner (data or
	// synchronization race) on another CPU. With the po and so1 edges
	// these have the same transitive closure as G′'s doubly-directed
	// edge per race.
	OriginPartner = "partner"
)

// Record is one flight-recorder entry. TS is nanoseconds since the
// recorder started; Seq groups the records of one analysis when a
// recorder spans several (racedetect with many inputs, a campaign).
// Exactly one payload pointer is non-nil, named after Kind.
type Record struct {
	TS   int64  `json:"ts"`
	Kind string `json:"kind"`
	Seq  int    `json:"seq,omitempty"`

	Meta      *MetaRec      `json:"meta,omitempty"`
	Event     *EventRec     `json:"event,omitempty"`
	Edge      *EdgeRec      `json:"edge,omitempty"`
	Phase     *PhaseRec     `json:"phase,omitempty"`
	Race      *RaceRec      `json:"race,omitempty"`
	Partition *PartitionRec `json:"partition,omitempty"`
	Seed      *SeedRec      `json:"seed,omitempty"`
}

// MetaRec is one analysis's header. TraceID and Stream are set only on
// stream-trace exports (see streamtrace.go), correlating the record set
// with the client-stamped trace context from the WRS1 header.
type MetaRec struct {
	Tool      string `json:"tool"`
	Program   string `json:"program"`
	Model     string `json:"model"`
	Seed      int64  `json:"seed"`
	CPUs      int    `json:"cpus"`
	Locations int    `json:"locations"`
	Events    int    `json:"events"`
	TraceID   string `json:"trace_id,omitempty"`
	Stream    string `json:"stream,omitempty"`
}

// EventRec is one trace event, identified the way reports identify
// events (processor + position) with its compact rendering.
type EventRec struct {
	CPU   int    `json:"cpu"`
	Index int    `json:"index"`
	Kind  string `json:"event_kind"`
	Desc  string `json:"desc"`
}

// EdgeRec is one edge of hb1 or G′, in dense event ids, tagged with why
// it exists. Partner edges are doubly directed; they are recorded once
// with From < To.
type EdgeRec struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Origin string `json:"origin"`
}

// PhaseRec is one timed phase: StartNS is relative to the recorder
// start, like Record.TS. Track names the timeline the phase belongs to
// in the Chrome trace export (one lane set per track). Batch tags
// stream-trace spans with the wire batch they measure (-1 for
// stream-level spans; 0 doubles as "unset" for offline phases, which
// never carry batches).
type PhaseRec struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Track   string `json:"track,omitempty"`
	Batch   int    `json:"batch,omitempty"`
}

// RaceRec is one detected race in dense event ids plus human-readable
// references.
type RaceRec struct {
	A    int    `json:"a"`
	B    int    `json:"b"`
	ARef string `json:"a_ref"`
	BRef string `json:"b_ref"`
	Locs string `json:"locs"`
	Data bool   `json:"data"`
}

// PartitionRec is one data-race partition (§4.2) of an analysis.
type PartitionRec struct {
	Index     int   `json:"index"`
	Component int   `json:"component"`
	First     bool  `json:"first"`
	Races     []int `json:"races"`
	Events    []int `json:"events"`
}

// SeedRec is one campaign seed's provenance summary: the aggregate a
// 500-seed hunt keeps instead of 500 full analysis dumps.
type SeedRec struct {
	Seed            int64  `json:"seed"`
	DurNS           int64  `json:"dur_ns"`
	Events          int    `json:"events"`
	Races           int    `json:"races"`
	DataRaces       int    `json:"data_races"`
	Partitions      int    `json:"partitions"`
	FirstPartitions int    `json:"first_partitions"`
	Racy            bool   `json:"racy"`
	Incomplete      bool   `json:"incomplete"`
	Failed          bool   `json:"failed"`
	Error           string `json:"error,omitempty"`
}

// Recorder accumulates flight records. Safe for concurrent use (campaign
// workers emit seed summaries in parallel); a nil *Recorder is the "off"
// state and every instrumentation site checks it before doing work.
type Recorder struct {
	start time.Time

	mu   sync.Mutex
	recs []Record
	seq  int
}

// NewRecorder returns an empty recorder; timestamps are relative to now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// NextSeq allocates the next analysis sequence number. Each analysis
// recorded through a shared recorder tags its records with one.
func (r *Recorder) NextSeq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq
}

// Now returns the recorder-relative timestamp in nanoseconds.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Emit appends one record, stamping TS if the caller left it zero.
func (r *Recorder) Emit(rec Record) {
	if rec.TS == 0 {
		rec.TS = r.Now()
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// Phase records one timed phase that started at the given wall-clock
// time and ends now.
func (r *Recorder) Phase(seq int, name, track string, start time.Time) {
	end := time.Now()
	r.Emit(Record{
		TS:   int64(end.Sub(r.start)),
		Kind: KindPhase,
		Seq:  seq,
		Phase: &PhaseRec{
			Name:    name,
			StartNS: int64(start.Sub(r.start)),
			DurNS:   int64(end.Sub(start)),
			Track:   track,
		},
	})
}

// Len returns the number of records.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Records returns a copy of the recorded entries.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// WriteJSONL writes the records one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Records())
}

// WriteJSONL writes records one JSON object per line. Field order is
// struct order and all numbers are integers, so re-exporting the result
// of ReadJSONL is byte-identical — the round-trip CI asserts.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

// ReadJSONL parses a JSONL flight log. Unknown fields are an error: the
// format is a contract, not a suggestion.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		data := bytes.TrimSpace(sc.Bytes())
		if len(data) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("export: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return recs, nil
}

// FlightLogName and ChromeTraceName are the file names WriteDir uses, so
// CLIs and CI agree on them.
const (
	FlightLogName   = "flight.jsonl"
	ChromeTraceName = "trace.json"
)

// WriteDir writes the flight log and the Chrome trace into dir
// (creating it), under the canonical names. Each file is written
// atomically (temp file + rename), so an interrupted flight-recorder
// flush never leaves a truncated JSONL or trace.json behind.
func (r *Recorder) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := atomicio.WriteFile(filepath.Join(dir, FlightLogName), r.WriteJSONL); err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, ChromeTraceName), r.WriteChromeTrace)
}
