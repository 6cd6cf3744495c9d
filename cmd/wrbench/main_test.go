package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakrace/internal/telemetry/export"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-list"}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	for _, want := range []string{"model-throughput", "tracing-overhead", "postmortem-scaling", "postmortem-scaling-large", "postmortem-scaling-xl", "full-pipeline"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunAllScenarios(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errb bytes.Buffer
	if got := run([]string{"-iters", "3", "-o", path}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var o Output
	if err := json.Unmarshal(data, &o); err != nil {
		t.Fatal(err)
	}
	if o.Iters != 3 {
		t.Errorf("iters = %d, want 3", o.Iters)
	}
	if len(o.Scenarios) != 6 {
		t.Fatalf("scenarios = %d, want 6", len(o.Scenarios))
	}
	for _, s := range o.Scenarios {
		if s.TotalNS <= 0 || s.NSPerIter <= 0 {
			t.Errorf("scenario %s has empty timings: %+v", s.Name, s)
		}
		// Every benchmark gets its own telemetry phase.
		if p, ok := o.Telemetry.Phases["bench."+s.Name]; !ok || p.Count != 1 {
			t.Errorf("phase bench.%s missing from snapshot", s.Name)
		}
	}
	// The pipeline ran with telemetry enabled: simulator and detector
	// counters must be present in the embedded snapshot.
	for _, name := range []string{"detect.analyses", "detect.races", "trace.builds", "detect.vc_builds"} {
		if o.Telemetry.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, o.Telemetry.Counters[name])
		}
	}
	// postmortem-scaling carries the scaling trajectory up to the
	// segments-128 point plus the timestamp layer's per-iteration
	// footprint — the metrics the perf-smoke baseline guards.
	for _, s := range o.Scenarios {
		if s.Name != "postmortem-scaling" {
			continue
		}
		for _, m := range []string{
			"segments_64_ns_per_iter",
			"segments_128_ns_per_iter",
			"segments_128_events",
			"vc_builds_per_iter",
			"vc_window_queries_per_iter",
		} {
			if s.Metrics[m] <= 0 {
				t.Errorf("postmortem-scaling metric %q = %v, want > 0", m, s.Metrics[m])
			}
		}
	}
	// model-throughput exercises every model.
	found := false
	for name := range o.Telemetry.Counters {
		if strings.HasPrefix(name, "sim.runs{model=") {
			found = true
		}
	}
	if !found {
		t.Error("no per-model sim.runs counters in snapshot")
	}
}

// TestRunLargeScalingScenario: the scenario reports the 30k+-event
// series, and -metrics dumps a snapshot carrying the timestamp and sweep
// counters.
func TestRunLargeScalingScenario(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errb bytes.Buffer
	got := run([]string{"-scenario", "postmortem-scaling-large", "-iters", "1", "-o", "-",
		"-metrics", metricsPath}, &out, &errb)
	if got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatalf("stdout is not the JSON trajectory: %v\n%s", err, out.String())
	}
	if len(o.Scenarios) != 1 || o.Scenarios[0].Name != "postmortem-scaling-large" {
		t.Fatalf("scenarios: %+v", o.Scenarios)
	}
	m := o.Scenarios[0].Metrics
	for _, key := range []string{
		"segments_256_ns_per_iter", "segments_512_ns_per_iter", "segments_1024_ns_per_iter",
		"segments_512_events", "segments_1024_events",
	} {
		if m[key] <= 0 {
			t.Errorf("metric %q = %v, want > 0", key, m[key])
		}
	}
	if m["segments_1024_events"] < 30000 {
		t.Errorf("segments_1024_events = %v, want the 30k+-event regime", m["segments_1024_events"])
	}
	// The -metrics dump must carry the timestamp layer's counters and the
	// sweep's bucket counter.
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"graph.vc.builds", "graph.vc.components",
		"detect.sweep.buckets", "detect.arena.recs_highwater",
	} {
		if !strings.Contains(string(data), name) {
			t.Errorf("telemetry dump missing %q", name)
		}
	}
}

// TestRunXLScalingScenario: the scenario reports the 67k–134k-event
// series, a per-phase breakdown of one segments-4096 analysis, and
// profiles per scenario under -profile; -metrics dumps a snapshot
// carrying the validator, hb1 and partition-ordering phases.
func TestRunXLScalingScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("100k+-event analyses")
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	profDir := filepath.Join(dir, "prof")
	var out, errb bytes.Buffer
	got := run([]string{"-scenario", "postmortem-scaling-xl", "-iters", "1", "-o", "-",
		"-metrics", metricsPath, "-profile", profDir}, &out, &errb)
	if got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatalf("stdout is not the JSON trajectory: %v\n%s", err, out.String())
	}
	if len(o.Scenarios) != 1 || o.Scenarios[0].Name != "postmortem-scaling-xl" {
		t.Fatalf("scenarios: %+v", o.Scenarios)
	}
	m := o.Scenarios[0].Metrics
	for _, key := range []string{
		"segments_2048_events", "segments_4096_events",
		"segments_2048_ns_per_iter", "segments_4096_ns_per_iter",
		"phase_detect.analyze_ns",
		"phase_trace.validate.streams_ns", "phase_trace.validate.so1_ns",
		"phase_detect.build_hb_ns", "phase_graph.timestamps_ns",
		"phase_detect.condreach.order_ns",
	} {
		if m[key] <= 0 {
			t.Errorf("metric %q = %v, want > 0", key, m[key])
		}
	}
	if m["segments_4096_events"] < 100000 {
		t.Errorf("segments_4096_events = %v, want the 100k+-event regime", m["segments_4096_events"])
	}
	if fi, err := os.Stat(filepath.Join(profDir, "postmortem-scaling-xl.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("per-scenario CPU profile missing or empty: %v", err)
	}
	// The -metrics dump must carry the validator's phases, the hb1 build
	// and timestamps, and the partition ordering.
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"trace.validate.streams", "trace.validate.so1",
		"detect.build_hb", "graph.timestamps",
		"detect.condreach.order",
	} {
		if !strings.Contains(string(data), name) {
			t.Errorf("telemetry dump missing %q", name)
		}
	}
}

func TestRunSingleScenarioToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-scenario", "full-pipeline", "-iters", "2", "-o", "-"}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatalf("stdout is not the JSON trajectory: %v\n%s", err, out.String())
	}
	if len(o.Scenarios) != 1 || o.Scenarios[0].Name != "full-pipeline" {
		t.Fatalf("scenarios: %+v", o.Scenarios)
	}
	if o.Scenarios[0].Metrics["data_races_per_iter"] <= 0 {
		t.Errorf("full-pipeline on Figure2 found no races: %+v", o.Scenarios[0].Metrics)
	}
}

func TestRunScenarioListToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "tracing-overhead, full-pipeline", "-iters", "2", "-o", "-"}
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatalf("stdout is not the JSON trajectory: %v\n%s", err, out.String())
	}
	// Selection order is preserved.
	if len(o.Scenarios) != 2 || o.Scenarios[0].Name != "tracing-overhead" || o.Scenarios[1].Name != "full-pipeline" {
		t.Fatalf("scenarios: %+v", o.Scenarios)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-scenario", "nope"}, &out, &errb); got != 2 {
		t.Fatalf("unknown scenario: exit = %d", got)
	}
	if got := run([]string{"-bogus"}, &out, &errb); got != 2 {
		t.Fatalf("bad flag: exit = %d", got)
	}
	if got := run([]string{"-iters", "1", "-o", filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")}, &out, &errb); got != 2 {
		t.Fatalf("unwritable output: exit = %d", got)
	}
}

func TestMetaBlockAndSegments64(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-scenario", "postmortem-scaling", "-iters", "1", "-o", "-"}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatal(err)
	}
	if o.Meta.GoVersion == "" || o.Meta.GOMAXPROCS <= 0 || o.Meta.GOOS == "" || o.Meta.GOARCH == "" {
		t.Fatalf("meta block incomplete: %+v", o.Meta)
	}
	for _, key := range []string{"segments_32_ns_per_iter", "segments_64_ns_per_iter"} {
		if o.Scenarios[0].Metrics[key] <= 0 {
			t.Fatalf("metric %s missing: %+v", key, o.Scenarios[0].Metrics)
		}
	}
}

func TestRegressionGuard(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if got := run([]string{"-scenario", "full-pipeline", "-iters", "2", "-o", base}, &out, &errb); got != 0 {
		t.Fatalf("baseline run: exit = %d (stderr: %s)", got, errb.String())
	}
	// A generous factor against our own fresh baseline must pass.
	args := []string{"-scenario", "full-pipeline", "-iters", "2", "-o", filepath.Join(dir, "cur.json"),
		"-baseline", base, "-guard", "full-pipeline:data_races_per_iter:100"}
	errb.Reset()
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("passing guard: exit = %d (stderr: %s)", got, errb.String())
	}
	if !strings.Contains(errb.String(), "guard ok") {
		t.Fatalf("no guard confirmation in stderr:\n%s", errb.String())
	}
	// An impossible factor must fail with exit 1.
	args[len(args)-1] = "full-pipeline:data_races_per_iter:0.000001"
	errb.Reset()
	if got := run(args, &out, &errb); got != 1 {
		t.Fatalf("regressing guard: exit = %d, want 1 (stderr: %s)", got, errb.String())
	}
	if !strings.Contains(errb.String(), "REGRESSION") {
		t.Fatalf("no regression message:\n%s", errb.String())
	}
	// Malformed guards and a missing baseline are usage errors.
	if got := run([]string{"-scenario", "full-pipeline", "-iters", "1", "-o", "-",
		"-guard", "full-pipeline:data_races_per_iter:2"}, &out, &errb); got != 2 {
		t.Fatalf("guard without baseline: exit = %d, want 2", got)
	}
	if got := run([]string{"-scenario", "full-pipeline", "-iters", "1", "-o", "-",
		"-baseline", base, "-guard", "nonsense"}, &out, &errb); got != 2 {
		t.Fatalf("malformed guard: exit = %d, want 2", got)
	}
}

// TestProvenanceCapture: -flight/-html run the segments-32 analysis once
// after the timed scenarios and write the CI artifacts; the stdout
// trajectory stays pipe-clean JSON.
func TestProvenanceCapture(t *testing.T) {
	dir := t.TempDir()
	flightDir := filepath.Join(dir, "flight")
	htmlPath := filepath.Join(dir, "report.html")
	var out, errb bytes.Buffer
	got := run([]string{"-scenario", "postmortem-scaling", "-iters", "1", "-o", "-",
		"-flight", flightDir, "-html", htmlPath}, &out, &errb)
	if got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errb.String())
	}
	var o Output
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		t.Fatalf("stdout is not the JSON trajectory: %v", err)
	}
	f, err := os.Open(filepath.Join(flightDir, export.FlightLogName))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := export.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, rec := range recs {
		kinds[rec.Kind]++
	}
	if kinds[export.KindMeta] != 1 || kinds[export.KindEvent] == 0 || kinds[export.KindEdge] == 0 {
		t.Fatalf("flight log incomplete: %v", kinds)
	}
	if _, err := os.Stat(filepath.Join(flightDir, export.ChromeTraceName)); err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<!DOCTYPE html>") {
		t.Fatal("HTML report malformed")
	}
}

func writeBenchFixture(t *testing.T, path, commit string, ns int64) {
	t.Helper()
	doc := fmt.Sprintf(`{
  "meta": {"go_version": "go1.24.0", "gomaxprocs": 1, "goos": "linux", "goarch": "amd64", "commit": %q},
  "iters": 30,
  "scenarios": [
    {"name": "model-throughput", "iters": 30, "total_ns": %d, "ns_per_iter": %d,
     "metrics": {"cycles_per_op_SC": 2.6}}
  ]
}`, commit, ns*30, ns)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTrajectoryMode: -trajectory renders the named bench points into
// one HTML report, ordered by the numeric suffix in the filename.
func TestTrajectoryMode(t *testing.T) {
	dir := t.TempDir()
	// Named out of order, and BENCH_10 must sort after BENCH_2.
	f10 := filepath.Join(dir, "BENCH_10.json")
	f2 := filepath.Join(dir, "BENCH_2.json")
	writeBenchFixture(t, f10, "commit-ten", 500000)
	writeBenchFixture(t, f2, "commit-two", 800000)
	out := filepath.Join(dir, "trend.html")

	var stdout, stderr bytes.Buffer
	if got := run([]string{"-trajectory", out, f10, f2}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d; stderr: %s", got, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{"model-throughput", "BENCH_2", "BENCH_10", "<svg"} {
		if !strings.Contains(html, want) {
			t.Errorf("trajectory HTML missing %q", want)
		}
	}
	if i2, i10 := strings.Index(html, "commit-two"), strings.Index(html, "commit-ten"); i2 < 0 || i10 < 0 || i2 > i10 {
		t.Errorf("bench points not in numeric order (BENCH_2 at %d, BENCH_10 at %d)", i2, i10)
	}
	if !strings.Contains(stderr.String(), "trajectory report over 2 bench points") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestTrajectoryGlobDefault: with no positional arguments -trajectory
// sweeps BENCH_*.json in the working directory.
func TestTrajectoryGlobDefault(t *testing.T) {
	dir := t.TempDir()
	writeBenchFixture(t, filepath.Join(dir, "BENCH_3.json"), "c3", 700000)
	writeBenchFixture(t, filepath.Join(dir, "BENCH_5.json"), "c5", 600000)
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if got := run([]string{"-trajectory", "trend.html"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d; stderr: %s", got, stderr.String())
	}
	data, err := os.ReadFile("trend.html")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BENCH_3") || !strings.Contains(string(data), "BENCH_5") {
		t.Error("globbed points missing from report")
	}
}

func TestTrajectoryErrors(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-trajectory", "trend.html"}, &stdout, &stderr); got != 2 {
		t.Fatalf("empty dir: exit = %d, want 2", got)
	}
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-trajectory", "trend.html", bad}, &stdout, &stderr); got != 2 {
		t.Fatalf("malformed point: exit = %d, want 2", got)
	}
}
