package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestParallelAnalysisCorpusEquivalent pins that repeated analyses of
// one trace are byte-identical on the frozen 60-trace corpus: five
// analyses run back to back through the shared arena (Options.Workers
// varies across them but is ignored), then one through an explicit
// arena shared by every trace of the corpus, so its kept slabs hold the
// previous trace's clocks and races; the Analysis, the rendered report,
// and the flight recording (partner edges included) must match the
// first's. Phase records carry wall-clock durations that legitimately
// vary run-to-run, so they are compared structurally (the per-analysis
// phase name sequence must match exactly) while every other record is
// compared as serialized JSONL bytes with the emission timestamp zeroed.
func TestParallelAnalysisCorpusEquivalent(t *testing.T) {
	shared := core.NewArena()
	for trial, c := range workload.Corpus(60, 1) {
		w, model, seed := c.Workload, c.Model, c.Seed
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := trace.FromExecution(r.Exec)

		type snapshot struct {
			a      *core.Analysis
			text   string
			flight string
			phases []string
		}
		run := func(workers int, ar *core.Arena) snapshot {
			fr := export.NewRecorder()
			a, err := core.Analyze(tr, core.Options{Workers: workers, Flight: fr, Arena: ar})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			var text bytes.Buffer
			if err := report.RenderAnalysis(&text, a); err != nil {
				t.Fatal(err)
			}
			var phases []string
			var structural []export.Record
			for _, rec := range fr.Records() {
				if rec.Kind == export.KindPhase {
					phases = append(phases, rec.Phase.Name)
					continue
				}
				rec.TS = 0
				structural = append(structural, rec)
			}
			var flight bytes.Buffer
			if err := export.WriteJSONL(&flight, structural); err != nil {
				t.Fatal(err)
			}
			return snapshot{a: a, text: text.String(), flight: flight.String(), phases: phases}
		}

		ref := run(1, nil)
		for _, workers := range []int{2, 3, 8, 16, 0} {
			var ar *core.Arena
			if workers == 0 { // the run through the shared arena
				ar = shared
			}
			got := run(workers, ar)
			if !reflect.DeepEqual(got.a.Races, ref.a.Races) ||
				got.a.SyncRaces != ref.a.SyncRaces ||
				!reflect.DeepEqual(got.a.Partitions, ref.a.Partitions) ||
				!reflect.DeepEqual(got.a.FirstPartitions, ref.a.FirstPartitions) ||
				!reflect.DeepEqual(got.a.HBTime, ref.a.HBTime) ||
				!reflect.DeepEqual(got.a.AugSCC, ref.a.AugSCC) {
				t.Fatalf("trial %d workers %d: analysis differs from workers=1", trial, workers)
			}
			if got.text != ref.text {
				t.Fatalf("trial %d workers %d: report text differs", trial, workers)
			}
			if got.flight != ref.flight {
				t.Fatalf("trial %d workers %d: flight records differ\n--- workers=%d\n%s--- workers=1\n%s",
					trial, workers, workers, got.flight, ref.flight)
			}
			if !reflect.DeepEqual(got.phases, ref.phases) {
				t.Fatalf("trial %d workers %d: phase sequence differs: %v vs %v",
					trial, workers, got.phases, ref.phases)
			}
		}
	}
}

// TestPooledAnalysesStayValid pins the lifetime rule of the default
// path: an Analysis made without an explicit arena borrows only the
// shared scratch, so it stays intact while later analyses reuse it.
// Every corpus analysis is kept, and after all 60 each must still equal
// a fresh analysis of its trace.
func TestPooledAnalysesStayValid(t *testing.T) {
	var traces []*trace.Trace
	var kept []*core.Analysis
	for trial, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := trace.FromExecution(r.Exec)
		a, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		traces, kept = append(traces, tr), append(kept, a)
	}
	for trial, got := range kept {
		want, err := core.Analyze(traces[trial], core.Options{Arena: core.NewArena()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Races, want.Races) ||
			!reflect.DeepEqual(got.Partitions, want.Partitions) ||
			!reflect.DeepEqual(got.HBTime, want.HBTime) ||
			!reflect.DeepEqual(got.AugSCC, want.AugSCC) {
			t.Fatalf("trial %d: a default-path analysis changed after later analyses", trial)
		}
	}
}

// TestDefaultPathReusesScratch pins that the default path's scratch is
// grown once: after a first default-path Analyze of the corpus's largest
// trace, each further one allocates only the slabs its Analysis keeps,
// under half of what an analysis through a fresh arena allocates
// (scratch and kept slabs both). A scratch regrown on any call breaks
// the bound. Each call runs on a new goroutine, which may land on
// another P, after two garbage collections, as decoding a large trace
// brings about: neither may cost the scratch.
func TestDefaultPathReusesScratch(t *testing.T) {
	var tr *trace.Trace
	for trial, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if next := trace.FromExecution(r.Exec); tr == nil || next.NumEvents() > tr.NumEvents() {
			tr = next
		}
	}
	allocated := func(opts core.Options) uint64 {
		var before, after runtime.MemStats
		done := make(chan error)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		go func() {
			_, err := core.Analyze(tr, opts)
			done <- err
		}()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fresh := allocated(core.Options{Arena: core.NewArena()})
	allocated(core.Options{})
	for i := 0; i < 20; i++ {
		if got := allocated(core.Options{}); got > fresh/2 {
			t.Fatalf("default-path analysis %d allocated %d bytes, want at most %d (half a fresh arena's %d): its scratch was regrown",
				i+2, got, fresh/2, fresh)
		}
	}
}
