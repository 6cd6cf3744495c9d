package core

import (
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestAnalyzeEmitsTelemetry runs the full pipeline on the paper's Figure 2
// workload (seed 674 exhibits the missing-Test&Set races on WO) with
// collection enabled and asserts the detector reported nonzero event,
// edge, race, and SCC counters plus phase timings.
func TestAnalyzeEmitsTelemetry(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()

	w := workload.Figure2()
	res, err := sim.Run(w.Prog, sim.Config{
		Model: memmodel.WO, Seed: 674, InitMemory: w.InitMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(trace.FromExecution(res.Exec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RaceFree() {
		t.Fatal("Figure2 on WO seed 674 should exhibit data races")
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"detect.analyses",
		"detect.events",
		"detect.hb_edges",
		"detect.aug_edges",
		"detect.races",
		"detect.data_races",
		"detect.partitions",
		"detect.first_partitions",
		"detect.scc.components",
		"detect.vc_builds",
		"detect.vc_components",
		"detect.vc_window_queries",
		"graph.vc.builds",
		"graph.ts.spans",
		"detect.sweep.buckets",
		"trace.builds",
		"trace.events.comp",
		"trace.events.sync",
		telemetry.Name("sim.runs", "model", "WO"),
		telemetry.Name("sim.steps", "model", "WO"),
		telemetry.Name("sim.ops", "model", "WO"),
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, snap.Counters[name])
		}
	}
	// The default path answers hb1 ordering with vector clocks and never
	// builds a closure: the reachability-row counters must be ABSENT, not
	// zero — a zero in flight logs must mean "closure built, no rows
	// needed", never "no closure ran".
	for _, name := range []string{"graph.reach.builds", "graph.reach.rows_built", "graph.reach.row_unions"} {
		if v, ok := snap.Counters[name]; ok {
			t.Errorf("counter %q = %d present on the timestamp path, want absent", name, v)
		}
	}
	if snap.Gauges["detect.scc.max_size"] <= 1 {
		t.Errorf("detect.scc.max_size = %d, want > 1 (race edges form cycles)",
			snap.Gauges["detect.scc.max_size"])
	}
	// graph.scc.max_size covers every reachability build (hb1 and G'), so
	// it is at least the per-analysis augmented-graph gauge.
	if snap.Gauges["graph.scc.max_size"] < snap.Gauges["detect.scc.max_size"] {
		t.Errorf("graph.scc.max_size = %d < detect.scc.max_size = %d",
			snap.Gauges["graph.scc.max_size"], snap.Gauges["detect.scc.max_size"])
	}
	if snap.Counters["detect.race_candidates"] <= 0 {
		t.Errorf("detect.race_candidates = %d, want > 0", snap.Counters["detect.race_candidates"])
	}
	// The hb1 build, the one pass with a parallel path, reports its
	// resolved worker budget even when a small input kept it serial.
	if snap.Gauges["graph.build.workers"] < 1 {
		t.Errorf("graph.build.workers = %d, want >= 1", snap.Gauges["graph.build.workers"])
	}
	// The timestamp layer's span statistics and the sweep's arena
	// high-water mark.
	if snap.Gauges["graph.ts.span_max_events"] < 1 {
		t.Errorf("graph.ts.span_max_events = %d, want >= 1", snap.Gauges["graph.ts.span_max_events"])
	}
	if snap.Gauges["detect.arena.recs_highwater"] < 1 {
		t.Errorf("detect.arena.recs_highwater = %d, want >= 1", snap.Gauges["detect.arena.recs_highwater"])
	}
	for _, phase := range []string{"sim.run", "trace.build", "detect.analyze", "detect.find_races",
		"detect.sweep.prep", "detect.sweep.scan", "detect.sweep.merge", "detect.sweep.coalesce",
		"trace.validate.streams", "trace.validate.so1", "graph.build.count", "graph.build.fill",
		"detect.condreach.order"} {
		if snap.Phases[phase].Count == 0 {
			t.Errorf("phase %q has no observations", phase)
		}
	}
	// Consistency: the detector saw exactly the events the trace builder
	// counted.
	if got, want := snap.Counters["detect.events"],
		snap.Counters["trace.events.comp"]+snap.Counters["trace.events.sync"]; got != want {
		t.Errorf("detect.events = %d, trace events = %d", got, want)
	}
	// detect.vc_hb_fastpath_hits is incremented live at the Affects query
	// site, not at flush: Definition-3.3 queries arrive after Analyze.
	// Every race trivially affects itself through an hb1-reflexive pair,
	// so one self-query must land on the clock fast path.
	if snap.Counters["detect.vc_hb_fastpath_hits"] != 0 {
		t.Errorf("detect.vc_hb_fastpath_hits = %d before any Affects query, want 0",
			snap.Counters["detect.vc_hb_fastpath_hits"])
	}
	if !a.Affects(0, 0) {
		t.Error("a race must affect itself")
	}
	if got := reg.Snapshot().Counters["detect.vc_hb_fastpath_hits"]; got <= 0 {
		t.Errorf("detect.vc_hb_fastpath_hits = %d after a self-Affects query, want > 0", got)
	}
}

// TestAnalyzeDisabledEmitsNothing: with collection off, Analyze must not
// create metrics.
func TestAnalyzeDisabledEmitsNothing(t *testing.T) {
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(false)

	w := workload.Figure2()
	res, err := sim.Run(w.Prog, sim.Config{
		Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(trace.FromExecution(res.Exec), Options{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("disabled registry collected metrics: %+v", snap)
	}
}
