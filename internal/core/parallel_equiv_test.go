package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestParallelAnalysisCorpusEquivalent pins the worker count's
// invisibility on the frozen 60-trace corpus: for worker counts
// {1, 2, 3, 8, 16} the Analysis, the rendered report, and the flight
// recording (partner edges included) must be byte-identical.
// Phase records carry wall-clock durations that legitimately vary
// run-to-run, so they are compared structurally (the per-analysis phase
// name sequence must match exactly) while every other record is compared
// as serialized JSONL bytes with the emission timestamp zeroed. The
// corpus traces stay below hbParallelCutoff; TestParallelBuildHBEquivalent
// covers traces large enough to engage the parallel hb1 build.
func TestParallelAnalysisCorpusEquivalent(t *testing.T) {
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
		run := func(workers int) snapshot {
			fr := export.NewRecorder()
			a, err := core.Analyze(tr, core.Options{Workers: workers, Flight: fr})
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

		ref := run(1)
		for _, workers := range []int{2, 3, 8, 16} {
			got := run(workers)
			if !reflect.DeepEqual(got.a.Races, ref.a.Races) ||
				got.a.SyncRaces != ref.a.SyncRaces ||
				!reflect.DeepEqual(got.a.Partitions, ref.a.Partitions) ||
				!reflect.DeepEqual(got.a.FirstPartitions, ref.a.FirstPartitions) {
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
