package core

// Flight-recorder instrumentation: when Options.Flight carries an
// export.Recorder, Analyze records a structured log of the run — the
// trace's events, every hb1 edge tagged with its origin (po or so1),
// the compressed race-partner edges of G′, the detection phases as a
// live timeline, and the data races and partitions found. With a nil
// recorder every hook below is a pointer check; the hot paths do no
// formatting, no allocation, and no time calls.

import (
	"fmt"
	"time"

	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
)

// flight is the per-Analyze recording context: the shared recorder plus
// this analysis's sequence number and timeline track.
type flight struct {
	fr    *export.Recorder
	seq   int
	track string
}

// newFlight allocates a recording context, or nil when no recorder is
// attached (the zero-overhead path).
func newFlight(fr *export.Recorder) *flight {
	if fr == nil {
		return nil
	}
	seq := fr.NextSeq()
	return &flight{fr: fr, seq: seq, track: fmt.Sprintf("analysis %d", seq)}
}

// startPhase begins a telemetry span and, when a flight recorder is
// attached, a flight phase. The returned func ends both. With telemetry
// disabled and no recorder this costs one atomic load and one nil check,
// and returns endNothing: a method value such as sp.End would be one heap
// allocation per phase.
func startPhase(reg *telemetry.Registry, fl *flight, name string) func() {
	if fl == nil && !reg.Enabled() {
		return endNothing
	}
	sp := reg.StartSpan(name)
	if fl == nil {
		return sp.End
	}
	t0 := time.Now()
	return func() {
		sp.End()
		fl.fr.Phase(fl.seq, name, fl.track, t0)
	}
}

// endNothing ends a phase that records nothing.
func endNothing() {}

// record dumps the analysis's structure into the flight log: meta,
// events, hb1 edges by origin, G′ partner edges, data races, and
// partitions. Runs once per Analyze, after the pipeline, off the hot
// path.
func (fl *flight) record(a *Analysis) {
	t := a.Trace
	fl.emit(export.Record{Kind: export.KindMeta, Meta: &export.MetaRec{
		Tool:      "core.Analyze",
		Program:   t.ProgramName,
		Model:     t.Model.String(),
		Seed:      t.Seed,
		CPUs:      t.NumCPUs,
		Locations: t.NumLocations,
		Events:    a.NumEvents,
	}})
	for c := range t.NumCPUs {
		from, to := t.Stream(c)
		for i := from; i < to; i++ {
			fl.emit(export.Record{Kind: export.KindEvent, Event: &export.EventRec{
				CPU: c, Index: i - from, Kind: t.Event(i).Kind().String(), Desc: t.EventString(i),
			}})
		}
	}
	// hb1 edges, re-derived from the trace in the processor-major order
	// of the flat hb1's successor lists, so each carries its origin tag
	// without the so1 index paying for provenance it does not need.
	for c := range t.NumCPUs {
		from, to := t.Stream(c)
		for id := from; id < to; id++ {
			if id+1 < to {
				fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
					From: id, To: id + 1, Origin: export.OriginPO,
				}})
			}
			if ev := t.Event(id); a.pairs(ev) {
				fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
					From: ev.Observed(), To: id, Origin: export.OriginSO1,
				}})
			}
		}
	}
	// Partner edges: G′'s race edges in the compressed form Tarjan ran
	// on — one directed edge per partner-table entry, from each racy
	// event to its po-minimal race partner (data or sync) on each other
	// CPU. Together with hb1 they have G′'s transitive closure.
	for i, v := range a.Options.Arena.partners {
		if v >= 0 {
			fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
				From: i / t.NumCPUs, To: int(v), Origin: export.OriginPartner,
			}})
		}
	}
	for _, r := range a.Races {
		fl.emit(export.Record{Kind: export.KindRace, Race: &export.RaceRec{
			A: int(r.A), B: int(r.B),
			ARef: a.Ref(r.A).String(), BRef: a.Ref(r.B).String(),
			Locs: r.Locs.String(), Data: true,
		}})
	}
	for pi, p := range a.Partitions {
		events := make([]int, len(p.Events))
		for i, id := range p.Events {
			events[i] = int(id)
		}
		fl.emit(export.Record{Kind: export.KindPartition, Partition: &export.PartitionRec{
			Index: pi, Component: p.Component, First: p.First,
			Races: append([]int(nil), p.Races...), Events: events,
		}})
	}
}

func (fl *flight) emit(rec export.Record) {
	rec.Seq = fl.seq
	fl.fr.Emit(rec)
}
