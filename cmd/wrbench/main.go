// Command wrbench runs the benchmark scenarios from the repo's bench
// harness as a standalone program and writes a JSON trajectory —
// per-scenario wall-clock timings and headline metrics plus a full
// telemetry snapshot (phase histograms, pipeline counters) — so a
// performance baseline can be captured and diffed without `go test`.
//
// Usage:
//
//	wrbench                        # all scenarios, BENCH_telemetry.json
//	wrbench -iters 50 -o base.json
//	wrbench -scenario full-pipeline -o - -iters 10
//	wrbench -scenario model-throughput,tracing-overhead -iters 3
//	wrbench -http 127.0.0.1:8077   # live /metrics, /status, dashboard
//	wrbench -scenario postmortem-scaling-xl -profile prof/   # per-scenario pprof
//	wrbench -trajectory trend.html           # all BENCH_*.json -> one report
//	wrbench -trajectory trend.html BENCH_2.json BENCH_5.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"weakrace"
	"weakrace/internal/obs"
	"weakrace/internal/report"
	"weakrace/internal/telemetry"
)

// Scenario is one benchmarked code path. run executes iters iterations
// and returns headline metrics (averaged or final, scenario-specific).
type scenario struct {
	name string
	run  func(iters int) (map[string]float64, error)
}

// Result is the JSON record for one scenario.
type Result struct {
	Name      string             `json:"name"`
	Iters     int                `json:"iters"`
	TotalNS   int64              `json:"total_ns"`
	NSPerIter int64              `json:"ns_per_iter"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// Meta records the environment a trajectory was captured in, so a
// baseline diff can tell a regression from a machine change.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit,omitempty"`
}

// collectMeta fills the meta block. The commit comes from the binary's
// embedded VCS stamp when present (real builds), falling back to asking
// git (the `go run` / `go test` case, where no stamp is embedded).
func collectMeta() Meta {
	m := Meta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	return m
}

// Output is the whole trajectory file.
type Output struct {
	Meta      Meta               `json:"meta"`
	Iters     int                `json:"iters"`
	Scenarios []Result           `json:"scenarios"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "BENCH_telemetry.json", "output file (- for stdout)")
		iters    = fs.Int("iters", 30, "iterations per scenario")
		only     = fs.String("scenario", "", "run only the named scenarios (comma-separated)")
		list     = fs.Bool("list", false, "list scenarios and exit")
		baseline = fs.String("baseline", "", "trajectory file to guard against")
		guard    = fs.String("guard", "", "regression guards, comma-separated scenario:metric:factor entries;\nexit 1 if a metric exceeds factor x its -baseline value")
		flight   = fs.String("flight", "", "after the scenarios, run one segments-32 analysis with a flight recorder\nand write flight.jsonl + trace.json (Perfetto) into this directory")
		htmlOut  = fs.String("html", "", "with -flight or alone: write the segments-32 run's HTML race report to this file")
		httpAddr = fs.String("http", "", "serve the observability plane (metrics, status, dashboard, pprof) on this address while benching")
		traject  = fs.String("trajectory", "", "standalone mode: render the checked-in BENCH_*.json files (or the\npositional arguments) into one HTML trend report at this path, then exit")
		metrics  = fs.String("metrics", "", "dump a JSON telemetry snapshot on exit to this file (- for stdout);\nincludes the analysis counters (graph.vc.*, trace.validate.*,\ndetect.sweep.*, detect.condreach.*, detect.arena.*)")
		profile  = fs.String("profile", "", "write a per-scenario CPU profile (<scenario>.pprof) into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *traject != "" {
		return renderTrajectory(*traject, fs.Args(), stderr)
	}

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, obs.Options{Tool: "wrbench"})
		if err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "wrbench: observability plane on http://%s/\n", srv.Addr())
	}

	scenarios := allScenarios()
	if *list {
		for _, s := range scenarios {
			fmt.Fprintln(stdout, s.name)
		}
		return 0
	}
	if *only != "" {
		// Comma-separated selection; CI smoke jobs run a subset in one
		// process so the telemetry snapshot covers all of them.
		var filtered []scenario
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, s := range scenarios {
				if s.name == name {
					filtered = append(filtered, s)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(stderr, "wrbench: unknown scenario %q (use -list)\n", name)
				return 2
			}
		}
		scenarios = filtered
	}

	if *profile != "" {
		if err := os.MkdirAll(*profile, 0o755); err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
	}
	defer telemetry.EnableDefault()()
	output := Output{Meta: collectMeta(), Iters: *iters}
	for _, s := range scenarios {
		fmt.Fprintf(stderr, "wrbench: %s (%d iters)...\n", s.name, *iters)
		var stopProfile func()
		if *profile != "" {
			// One CPU profile per scenario, so a hot phase can be
			// attributed to the scenario that exercised it.
			path := filepath.Join(*profile, s.name+".pprof")
			stop, err := telemetry.StartProfiles(path, "", stderr)
			if err != nil {
				fmt.Fprintf(stderr, "wrbench: %v\n", err)
				return 2
			}
			stopProfile = stop
		}
		sp := telemetry.Default().StartSpan("bench." + s.name)
		start := time.Now()
		metrics, err := s.run(*iters)
		elapsed := time.Since(start)
		sp.End()
		if stopProfile != nil {
			stopProfile()
			fmt.Fprintf(stderr, "wrbench: CPU profile written to %s\n",
				filepath.Join(*profile, s.name+".pprof"))
		}
		if err != nil {
			fmt.Fprintf(stderr, "wrbench: %s: %v\n", s.name, err)
			return 2
		}
		output.Scenarios = append(output.Scenarios, Result{
			Name:      s.name,
			Iters:     *iters,
			TotalNS:   elapsed.Nanoseconds(),
			NSPerIter: elapsed.Nanoseconds() / int64(*iters),
			Metrics:   metrics,
		})
	}
	output.Telemetry = *telemetry.Default().Snapshot()

	data, err := json.MarshalIndent(output, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "wrbench: %v\n", err)
		return 2
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wrbench: %v\n", err)
		return 2
	}
	if *out != "-" {
		fmt.Fprintf(stderr, "wrbench: trajectory written to %s\n", *out)
	}
	if *flight != "" || *htmlOut != "" {
		if err := captureProvenance(*flight, *htmlOut, stderr); err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
	}
	if *metrics != "" {
		if err := telemetry.DumpDefault(*metrics, stdout); err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
	}
	if *guard != "" {
		if *baseline == "" {
			fmt.Fprintln(stderr, "wrbench: -guard requires -baseline")
			return 2
		}
		base, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
		var baseOut Output
		if err := json.Unmarshal(base, &baseOut); err != nil {
			fmt.Fprintf(stderr, "wrbench: baseline %s: %v\n", *baseline, err)
			return 2
		}
		if code := checkGuards(*guard, &baseOut, &output, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// renderTrajectory is `wrbench -trajectory`: parse each bench point
// (the given files, default every BENCH_*.json in the working
// directory), order them by the PR number in the filename, and render
// the cross-PR trend report.
func renderTrajectory(out string, files []string, stderr io.Writer) int {
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("BENCH_*.json")
		if err != nil || len(files) == 0 {
			fmt.Fprintln(stderr, "wrbench: -trajectory found no BENCH_*.json files (pass them as arguments)")
			return 2
		}
	}
	// BENCH_10 must sort after BENCH_2: compare the numeric suffix when
	// both sides have one.
	num := func(path string) (int, bool) {
		stem := strings.TrimSuffix(filepath.Base(path), ".json")
		i := strings.LastIndex(stem, "_")
		if i < 0 {
			return 0, false
		}
		n, err := strconv.Atoi(stem[i+1:])
		return n, err == nil
	}
	sort.SliceStable(files, func(i, j int) bool {
		a, aok := num(files[i])
		b, bok := num(files[j])
		if aok && bok {
			return a < b
		}
		return files[i] < files[j]
	})

	var points []report.BenchPoint
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
		label := strings.TrimSuffix(filepath.Base(f), ".json")
		p, err := report.ParseBenchPoint(label, data)
		if err != nil {
			fmt.Fprintf(stderr, "wrbench: %v\n", err)
			return 2
		}
		points = append(points, p)
	}

	f, err := os.Create(out)
	if err == nil {
		err = report.RenderTrajectory(f, points)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "wrbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "wrbench: trajectory report over %d bench points written to %s\n", len(points), out)
	return 0
}

// captureProvenance runs the postmortem-scaling scenario's segments-32
// point once with a flight recorder attached and exports the recording
// (flight.jsonl + Perfetto trace.json) and/or the HTML race report —
// the artifacts CI archives from its perf-smoke run. Runs after the
// timed scenarios so it cannot perturb them.
func captureProvenance(flightDir, htmlOut string, stderr io.Writer) error {
	w := weakrace.RandomWorkload(weakrace.RandomParams{
		Seed: 5, CPUs: 4, Segments: 32, UnlockedFraction: 0.3,
	})
	res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
	if err != nil {
		return err
	}
	fr := weakrace.NewFlightRecorder()
	a, err := weakrace.Detect(weakrace.TraceExecution(res.Exec), weakrace.DetectOptions{Flight: fr})
	if err != nil {
		return err
	}
	if flightDir != "" {
		if err := fr.WriteDir(flightDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrbench: flight recording (segments-32) written to %s\n", flightDir)
	}
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err == nil {
			err = weakrace.WriteHTMLReport(f, weakrace.NewExplainer(a))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrbench: HTML report (segments-32) written to %s\n", htmlOut)
	}
	return nil
}

// checkGuards enforces coarse regression guards: each entry names a
// scenario metric and the slack factor the current run is allowed over
// the baseline. Returns 1 on regression, 2 on malformed input, 0 when
// every guard holds.
func checkGuards(guards string, base, cur *Output, stderr io.Writer) int {
	metric := func(o *Output, scen, name string) (float64, bool) {
		for _, s := range o.Scenarios {
			if s.Name == scen {
				v, ok := s.Metrics[name]
				return v, ok
			}
		}
		return 0, false
	}
	failed := false
	for _, g := range strings.Split(guards, ",") {
		parts := strings.Split(strings.TrimSpace(g), ":")
		if len(parts) != 3 {
			fmt.Fprintf(stderr, "wrbench: bad guard %q (want scenario:metric:factor)\n", g)
			return 2
		}
		scen, name := parts[0], parts[1]
		factor, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || factor <= 0 {
			fmt.Fprintf(stderr, "wrbench: bad guard factor %q\n", parts[2])
			return 2
		}
		baseV, ok := metric(base, scen, name)
		if !ok {
			fmt.Fprintf(stderr, "wrbench: guard %s: metric not in baseline\n", g)
			return 2
		}
		curV, ok := metric(cur, scen, name)
		if !ok {
			fmt.Fprintf(stderr, "wrbench: guard %s: metric not in this run\n", g)
			return 2
		}
		if curV > baseV*factor {
			fmt.Fprintf(stderr, "wrbench: REGRESSION %s/%s: %.0f > %.1fx baseline %.0f\n",
				scen, name, curV, factor, baseV)
			failed = true
		} else {
			fmt.Fprintf(stderr, "wrbench: guard ok %s/%s: %.0f <= %.1fx baseline %.0f\n",
				scen, name, curV, factor, baseV)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// detectSeries times iters detections of the postmortem-scaling trace
// at each segment count under opts, recording segments_<n>_ns_per_iter
// and segments_<n>_events in metrics. It returns the last trace.
func detectSeries(metrics map[string]float64, segments []int, iters int, opts weakrace.DetectOptions) (*weakrace.Trace, error) {
	var tr *weakrace.Trace
	for _, n := range segments {
		w := weakrace.RandomWorkload(weakrace.RandomParams{
			Seed: 5, CPUs: 4, Segments: n, UnlockedFraction: 0.3,
		})
		res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
		if err != nil {
			return nil, err
		}
		tr = weakrace.TraceExecution(res.Exec)
		start := time.Now()
		events := 0
		for i := 0; i < iters; i++ {
			a, err := weakrace.Detect(tr, opts)
			if err != nil {
				return nil, err
			}
			events = a.NumEvents
		}
		key := fmt.Sprintf("segments_%d", n)
		metrics[key+"_ns_per_iter"] = float64(time.Since(start).Nanoseconds()) / float64(iters)
		metrics[key+"_events"] = float64(events)
	}
	return tr, nil
}

// allScenarios mirrors the T1–T3 benchmark families in bench_test.go plus
// the end-to-end pipeline, parameterized by iteration count instead of
// b.N so the same paths run outside the testing framework.
func allScenarios() []scenario {
	return []scenario{
		{"model-throughput", func(iters int) (map[string]float64, error) {
			// T1: write-burst on every model; cycles/op per model.
			w := weakrace.WriteBurst(4, 12, 4)
			metrics := map[string]float64{}
			for _, model := range weakrace.AllModels {
				var cycles, ops int64
				for i := 0; i < iters; i++ {
					res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
						Model: model, Seed: int64(i), RetireProb: 0.5,
						InitMemory: w.InitMemory,
					})
					if err != nil {
						return nil, err
					}
					cycles += res.Makespan()
					ops += int64(res.Exec.NumOps())
				}
				metrics["cycles_per_op_"+model.String()] = float64(cycles) / float64(ops)
			}
			return metrics, nil
		}},
		{"tracing-overhead", func(iters int) (map[string]float64, error) {
			// T2: simulation alone vs simulation + trace + encode. Both
			// loops also count heap allocations, so the trajectory records
			// the tracing layer's allocation share (the number
			// trace.FromExecution's preallocation pass drives down).
			w := weakrace.LockedCounter(4, 8, -1)
			cfg := weakrace.SimConfig{Model: weakrace.WO, Seed: 1}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			simMallocs := ms.Mallocs
			simStart := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := weakrace.Simulate(w.Prog, cfg); err != nil {
					return nil, err
				}
			}
			simNS := time.Since(simStart).Nanoseconds()
			runtime.ReadMemStats(&ms)
			simMallocs = ms.Mallocs - simMallocs
			fullMallocs := ms.Mallocs
			fullStart := time.Now()
			for i := 0; i < iters; i++ {
				res, err := weakrace.Simulate(w.Prog, cfg)
				if err != nil {
					return nil, err
				}
				tr := weakrace.TraceExecution(res.Exec)
				if err := weakrace.EncodeTrace(io.Discard, tr); err != nil {
					return nil, err
				}
			}
			fullNS := time.Since(fullStart).Nanoseconds()
			runtime.ReadMemStats(&ms)
			fullMallocs = ms.Mallocs - fullMallocs
			metrics := map[string]float64{
				"simulate_ns_per_iter":     float64(simNS) / float64(iters),
				"traced_ns_per_iter":       float64(fullNS) / float64(iters),
				"simulate_allocs_per_iter": float64(simMallocs) / float64(iters),
				"traced_allocs_per_iter":   float64(fullMallocs) / float64(iters),
			}
			if simNS > 0 {
				metrics["overhead_ratio"] = float64(fullNS) / float64(simNS)
			}
			if fullMallocs >= simMallocs {
				metrics["tracing_allocs_per_iter"] = float64(fullMallocs-simMallocs) / float64(iters)
			}
			return metrics, nil
		}},
		{"postmortem-scaling", func(iters int) (map[string]float64, error) {
			// T3: analysis cost as the trace grows (4..128 segments). The
			// detector's vc_* counter deltas ride along, normalized per
			// iteration, so the trajectory records the timestamp layer's
			// footprint (and a baseline diff catches a silent fallback to
			// the closure path — vc_builds would drop to zero).
			metrics := map[string]float64{}
			before := telemetry.Default().Snapshot()
			if _, err := detectSeries(metrics, []int{4, 8, 16, 32, 64, 128}, iters,
				weakrace.DetectOptions{}); err != nil {
				return nil, err
			}
			delta := telemetry.Default().Snapshot().Delta(before)
			for _, name := range []string{
				"detect.vc_builds",
				"detect.vc_window_queries",
				"detect.vc_hb_fastpath_hits",
			} {
				short := strings.TrimPrefix(name, "detect.")
				metrics[short+"_per_iter"] = float64(delta.Counters[name]) / float64(iters)
			}
			return metrics, nil
		}},
		{"postmortem-scaling-large", func(iters int) (map[string]float64, error) {
			// The 30k+-event regime: analysis cost at segments
			// 256/512/1024. Large traces amortize quickly, so iterations
			// are capped to keep the whole scenario in seconds.
			metrics := map[string]float64{}
			if _, err := detectSeries(metrics, []int{256, 512, 1024}, min(iters, 10),
				weakrace.DetectOptions{}); err != nil {
				return nil, err
			}
			return metrics, nil
		}},
		{"postmortem-scaling-xl", func(iters int) (map[string]float64, error) {
			// The 67k–134k-event regime: Analyze over segments 2048/4096,
			// plus a per-phase breakdown of one segments-4096 validation
			// and analysis taken from the telemetry phase histograms
			// (phase_<name>_ns metrics). Analyze does not validate — a
			// trace is valid when made — so the breakdown runs the
			// validator itself, as a decoder would. These traces run
			// hundreds of ms per analysis, so iterations are capped at 3.
			metrics := map[string]float64{}
			tr4096, err := detectSeries(metrics, []int{2048, 4096}, min(iters, 3), weakrace.DetectOptions{})
			if err != nil {
				return nil, err
			}
			// Per-phase breakdown: one more segments-4096 validation and
			// analysis, bracketed by telemetry snapshots.
			before := telemetry.Default().Snapshot()
			if err := tr4096.Validate(); err != nil {
				return nil, err
			}
			if _, err := weakrace.Detect(tr4096, weakrace.DetectOptions{}); err != nil {
				return nil, err
			}
			delta := telemetry.Default().Snapshot().Delta(before)
			for name, ph := range delta.Phases {
				if strings.HasPrefix(name, "detect.") ||
					strings.HasPrefix(name, "graph.") ||
					strings.HasPrefix(name, "trace.") {
					metrics["phase_"+name+"_ns"] = float64(ph.TotalNS)
				}
			}
			return metrics, nil
		}},
		{"full-pipeline", func(iters int) (map[string]float64, error) {
			// Simulate + trace + detect + partition on Figure 2.
			w := weakrace.Figure2()
			races := 0.0
			for i := 0; i < iters; i++ {
				res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
					Model: weakrace.WO, Seed: int64(i), InitMemory: w.InitMemory,
				})
				if err != nil {
					return nil, err
				}
				a, err := weakrace.Detect(weakrace.TraceExecution(res.Exec), weakrace.DetectOptions{})
				if err != nil {
					return nil, err
				}
				races += float64(len(a.Races))
			}
			return map[string]float64{"data_races_per_iter": races / float64(iters)}, nil
		}},
	}
}
