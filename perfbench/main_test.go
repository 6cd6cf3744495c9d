package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"weakrace/internal/campaign"
	"weakrace/internal/onthefly"
	"weakrace/internal/stream"
)

// namedMetrics lists, per workload and run kind, every metric the
// workload reports under its own name, with its unit.
var namedMetrics = map[string]map[int]map[string]string{
	"postmortem": {
		0: {"setup_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB", "mem_mb": "MB",
			"trace_ms_p50": "ms", "trace_ms_p90": "ms", "events_per_s": "events/s"},
		1: {"trace.decode_ms": "ms", "trace.validate_ms": "ms", "core.analyze_ms": "ms",
			"core.alloc_mb": "MB", "core.races": "count", "core.data_races": "count",
			"core.data_race_share": "ratio", "core.race_candidates": "count", "core.hb_edges": "count",
			"core.aug_edges": "count", "core.partitions": "count", "core.first_partitions": "count",
			"report.render_ms": "ms", "bench.unattributed_ms": "ms", "bench.trace_overhead_pct": "%"},
	},
	"campaign": {
		0: {"setup_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB", "mem_mb": "MB", "seeds_per_s": "seeds/s"},
		1: {"sim.run_us": "us", "sim.ops": "count", "trace.from_execution_us": "us",
			"trace.allocs_per_seed": "count", "core.analyze_us": "us", "core.races_per_seed": "count",
			"core.data_race_share": "ratio", "campaign.other_us": "us", "campaign.outside_seeds_us": "us",
			"bench.unattributed_us": "us", "campaign.distinct_races": "count",
			"campaign.racy_seeds": "count", "bench.trace_overhead_pct": "%"},
	},
	"stream": {
		0: {"setup_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB", "mem_mb": "MB",
			"stream_ops_per_s": "ops/s", "stream_ms_p50": "ms", "stream_ms_p99": "ms"},
		1: {"stream.batch_wait_us_p99": "us", "stream.queue_high_water": "count",
			"stream.batch_feed_us_p50": "us", "stream.batch_feed_us_p99": "us",
			"stream.client_write_us_p99": "us", "onthefly.detect_ops_per_s": "ops/s",
			"onthefly.comparisons_per_op": "count", "telemetry.stream_tracing_overhead_pct": "%",
			"bench.trace_overhead_pct": "%"},
	},
}

// benchSpec is the part of BENCHMARK.json the result line must match.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShape runs every workload at a tiny size, untraced and traced, and
// checks that each emits every metric of BENCHMARK.json and every metric
// it names itself, with its unit, that its outputs passed their checks,
// and that a traced run's layer shares account for the operation time.
func TestShape(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--tiny", "--spans-dir", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if len(lines) != 2 {
					t.Fatalf("want a report line and a result line, got %d lines", len(lines))
				}
				var rep struct {
					Named metrics
					Env   map[string]any
					Spans string
				}
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
					t.Fatal(err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Fatalf("result keys: %s", lines[1])
				}
				var got struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           metrics
				}
				if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("outputs failed their checks: %s", lines[1])
				}

				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("result metric %s: got %+v, want unit %s", m.Name, g, m.Unit)
					}
				}
				tr := map[string]int{"0": 0, "1": 1}[trace]
				for name, unit := range namedMetrics[w.Name][tr] {
					if g, ok := rep.Named[name]; !ok || g.Unit != unit {
						t.Errorf("named metric %s: got %+v, want unit %s", name, g, unit)
					}
				}
				for _, k := range []string{"gomaxprocs", "nproc", "go", "commit"} {
					if _, ok := rep.Env[k]; !ok {
						t.Errorf("environment lacks %s", k)
					}
				}
				if trace == "1" {
					sum := 0.0
					for name, m := range got.Metrics {
						if strings.HasSuffix(name, ".self_pct") || name == "bench.unattributed_pct" {
							sum += m.Value
						}
					}
					if sum < 99.99 || sum > 100.01 {
						t.Errorf("layer shares sum to %.4f%%, want 100%%", sum)
					}
					if n := countLines(t, rep.Spans); n == 0 {
						t.Errorf("span file %s is empty", rep.Spans)
					} else if filepath.Dir(rep.Spans) != dir {
						t.Errorf("span file %s not under %s", rep.Spans, dir)
					}
				}
			})
		}
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" || s.End < s.Start {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
	}
	return n
}

// The checks must fail on a corrupted result: a dropped race, an altered
// report, a failed or different campaign, a campaign the on-the-fly oracle
// contradicts, a wrong stream summary.
func TestChecksCatchCorruption(t *testing.T) {
	traces, _, err := pmTraces(5, true)
	if err != nil {
		t.Fatal(err)
	}
	racy := traces[0] // the one trace that keeps its execution for the oracle
	res, err := analyzeTrace(racy.data)
	if err != nil {
		t.Fatal(err)
	}
	a := res.a
	racy.digest = res.digest
	if len(a.DataRaces) == 0 {
		t.Fatal("the tiny trace has no data races")
	}
	otf := onthefly.Detect(racy.exec, onthefly.Options{})
	if err := checkOracles(a, otf); err != nil {
		t.Fatalf("intact analysis failed the oracles: %v", err)
	}
	ll := a.LowerLevel(a.Races[a.DataRaces[0]])[0].Canonical()
	delete(otf.Races, ll)
	if checkOracles(a, otf) == nil {
		t.Error("a race dropped by the on-the-fly oracle went unnoticed")
	}
	otf.Races[ll] = true
	noFirst := *a
	noFirst.FirstPartitions = nil
	if checkOracles(&noFirst, otf) == nil {
		t.Error("data races without first partitions (Theorem 4.1) went unnoticed")
	}
	if checkDigest(racy, racy.digest) != nil {
		t.Error("the first analysis's own digest failed")
	}
	bad := racy.digest
	bad[0] ^= 1
	if checkDigest(racy, bad) == nil {
		t.Error("an altered report digest went unnoticed")
	}

	cc := campaignConfig(1, true)
	ref, err := campaign.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	key := campaignKey(ref)
	if err := checkCampaign(key, ref); err != nil {
		t.Fatalf("reference campaign failed its own check: %v", err)
	}
	failed := *ref
	failed.Failed = 1
	if checkCampaign(key, &failed) == nil {
		t.Error("a failed seed went unnoticed")
	}
	if len(ref.Races) == 0 {
		t.Fatal("tiny campaign found no races")
	}
	dropped := *ref
	dropped.Races = ref.Races[1:]
	if checkCampaign(key, &dropped) == nil {
		t.Error("a dropped campaign race went unnoticed")
	}

	// The reference campaign itself is checked against the on-the-fly
	// oracle, which catches a campaign that is wrong on every run.
	sets, err := otfCampaign(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCampaignOracle(ref, sets); err != nil {
		t.Fatalf("intact campaign failed the on-the-fly oracle: %v", err)
	}
	if checkCampaignOracle(&dropped, sets) == nil {
		t.Error("a race dropped from every campaign went unnoticed by the oracle")
	}
	fewer := *ref
	fewer.Racy--
	if checkCampaignOracle(&fewer, sets) == nil {
		t.Error("a wrong racy-execution count went unnoticed by the oracle")
	}
	invented := *ref
	invented.Races = slices.Clone(ref.Races)
	invented.Races[0].Race.Loc += 1000
	if checkCampaignOracle(&invented, sets) == nil {
		t.Error("a race no execution had went unnoticed by the oracle")
	}

	execs, _, err := stmExecs(2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range execs {
		if len(x.want) == 0 {
			continue
		}
		if checkStream(x, &stream.Summary{Races: x.want}) != nil {
			t.Error("an exact stream summary failed its check")
		}
		if checkStream(x, &stream.Summary{Races: x.want[1:]}) == nil {
			t.Error("a stream summary missing a race went unnoticed")
		}
		return
	}
	t.Fatal("no tiny stream execution has races")
}
