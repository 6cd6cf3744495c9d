// Command perfbench is weakrace's benchmark. It runs one of three
// workloads closed-loop in a single process for a fixed time:
//
//   - postmortem: racedetect's path, decode → validate → core.Analyze →
//     report.RenderAnalysis, over a fixed set of spin-contended traces;
//   - campaign: racehunt's path, campaign.Run on the buggy counter;
//   - stream: wrserve's path, an in-process stream.Serve fed by
//     stream.Send clients on two connections.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload postmortem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is the result with the
// end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
// per-layer metrics, taken from spans the benchmark records around its
// calls into each layer. The line before it is a report with the
// workload's own metric names, the run's environment and, when traced,
// the path of the span file. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// tiny shrinks every input to a few small executions; the shape
	// test uses it to run each workload in well under a second.
	tiny     bool
	spansDir string
	commit   string
	log      io.Writer // progress and check failures
	// warmup is how long each workload runs before it starts timing:
	// pooled arenas grow, and the first second of a busy process on a
	// virtual machine runs markedly slower than the rest.
	warmup time.Duration
}

// dur is the measuring time.
func (c config) dur() time.Duration { return time.Duration(c.seconds) * time.Second }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	// e2e and layers are the BENCHMARK.json metrics: e2e from an
	// untraced run, layers from a traced one. Only one is filled.
	e2e, layers metrics
	// named holds the same measurements under the workload's own names
	// (trace_ms_p90, core.analyze_ms, ...), plus the work counters.
	named metrics
	spans *spanLog
}

// e2eNames are a workload's own names for the end-to-end metrics.
type e2eNames struct{ p50, tail, rate, rateUnit, count string }

// endToEnd fills the result's end-to-end metrics from an untraced run —
// the operation latencies, the tail quantile reported, the work rate and
// the memory sampled while it ran — and the report's copies of them
// under the workload's names.
func (o *outcome) endToEnd(log io.Writer, setupS float64, lat []float64, tailQ, rate, memMB float64, n e2eNames) {
	o.e2e = metrics{}
	o.e2e.set("setup_s", setupS, "s")
	o.e2e.set("mem_mb", memMB, "MB")
	o.e2e.set("op_ms_p50", quantile(lat, 0.5), "ms")
	o.e2e.set("op_ms_tail", quantile(lat, tailQ), "ms")
	o.e2e.set("work_per_s", rate, "1/s")
	warnTail(log, n.tail, len(lat), tailQ)
	o.named.set("setup_s", setupS, "s")
	o.named.set("mem_mb", memMB, "MB")
	o.named.set("peak_rss_mb", peakRSSMB(), "MB")
	o.named.set(n.p50, o.e2e["op_ms_p50"].Value, "ms")
	o.named.set(n.tail, o.e2e["op_ms_tail"].Value, "ms")
	o.named.set(n.rate, rate, n.rateUnit)
	o.named.set(n.count, float64(len(lat)), "count")
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"postmortem": runPostmortem,
	"campaign":   runCampaign,
	"stream":     runStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var cfg config
	var trace int
	fset.StringVar(&cfg.workload, "workload", "", "workload: postmortem, campaign or stream")
	fset.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	fset.IntVar(&cfg.seconds, "seconds", 25, "measuring time in seconds")
	fset.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fset.BoolVar(&cfg.tiny, "tiny", false, "run on tiny inputs (shape test)")
	fset.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	fset.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, recorded with the result")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.traced = trace == 1
	cfg.log = stderr
	cfg.warmup = 2 * time.Second
	if cfg.tiny {
		cfg.warmup = 100 * time.Millisecond
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload postmortem|campaign|stream, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out.named.set("fail_ratio", float64(out.failed)/float64(out.attempted), "ratio")

	rep := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    trace,
		"env":      environment(cfg.commit),
		"named":    out.named,
	}
	result := out.e2e
	if cfg.traced {
		result = out.layers
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep["spans"] = path
		rep["span_count"] = len(out.spans.spans)
	}
	names := make([]string, 0, len(out.named))
	for name := range out.named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.named[name]
		fmt.Fprintf(stderr, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	err = enc.Encode(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   result,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// environment records what a result depends on besides the code:
// GOMAXPROCS, the CPU count, the Go version and the commit.
func environment(commit string) map[string]any {
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"gogc":        os.Getenv("GOGC"),
		"commit":      commit,
	}
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// memSampler samples the Go runtime's memory footprint — memory it has
// mapped and not returned to the OS, the part of the resident set the
// program controls — every 10 ms, and keeps the peak of each 2-second
// window. VmHWM is the peak of one moment: on a shared virtual machine a
// single delayed GC cycle can lift it by half for the whole run, as the
// campaign workload shows (25 MB in most runs, up to 47 MB in some). The
// median of the window peaks moves only when the footprint does.
type memSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *memSampler) run() {
	defer close(m.done)
	samples := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	peak, windowEnd := 0.0, time.Now().Add(2*time.Second)
	for {
		select {
		case <-m.stop:
			if len(m.peaks) == 0 {
				m.peaks = append(m.peaks, peak) // a run shorter than one window
			}
			return
		case now := <-tick.C:
			rtmetrics.Read(samples)
			mb := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
			peak = max(peak, mb)
			if now.After(windowEnd) {
				m.peaks = append(m.peaks, peak)
				peak, windowEnd = 0, now.Add(2*time.Second)
			}
		}
	}
}

// finish stops the sampler and returns the median window peak in MB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.peaks)
}

// setupRepeats is how many times each workload builds its inputs; the
// reported setup_s is the median, and the last build's inputs are used.
// A set-up takes 0.05 to 0.7 s, short enough for one stall of the
// machine to move a single build by a third, so the median is over seven.
const setupRepeats = 7

// timedSetup runs build setupRepeats times and returns the last result
// and the median build time in seconds. Each build must reproduce the
// first one's fingerprint, since the inputs are a function of the seed.
func timedSetup[T any](build func() (T, string, error)) (T, float64, error) {
	var last T
	var first string
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, fp, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == 0 {
			first = fp
		} else if fp != first {
			return last, 0, errors.New("set-up is not deterministic in the seed")
		}
		last = v
	}
	return last, median(secs), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// warnTail notes on stderr when fewer than ten samples lie beyond the
// q-quantile, so a tail figure is not read as better founded than it is.
func warnTail(w io.Writer, name string, n int, q float64) {
	if beyond := float64(n) * (1 - q); beyond < 10 {
		fmt.Fprintf(w, "perfbench: %s rests on %d samples, %.1f beyond it\n", name, n, beyond)
	}
}

// sample is one finished operation: when it ended, how long it took,
// and the work it did (events, seeds or operations).
type sample struct {
	end  time.Time
	d    time.Duration
	work float64
}

// latencies returns the samples' durations in milliseconds.
func latencies(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = ms(s.d)
	}
	return xs
}

// groupRate is the median, over consecutive groups of n operations in
// completion order, of the work the group finished per second, each
// group timed from the previous group's last completion (from start for
// the first). A median of many groups keeps a burst of machine noise in
// one part of the run from moving the run's figure.
func groupRate(start time.Time, ss []sample, n int) float64 {
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(a, b sample) int { return a.end.Compare(b.end) })
	var rates []float64
	prev := start
	for i := 0; i+n <= len(ss); i += n {
		work := 0.0
		for _, s := range ss[i : i+n] {
			work += s.work
		}
		end := ss[i+n-1].end
		rates = append(rates, work/end.Sub(prev).Seconds())
		prev = end
	}
	return median(rates)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns part as a percentage of whole.
func pct(part, whole float64) float64 { return 100 * part / whole }

// overheadPct is how much slower the traced run was than the untraced
// one, in percent of the untraced time per operation.
func overheadPct(untraced, traced float64) float64 { return 100 * (traced/untraced - 1) }

// span is one timed call recorded by the benchmark: its name, its
// interval relative to the start of the run, the span it ran under, and
// the operation (trace, campaign, stream) it belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an operation's root span
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name belongs to: the part before the
// first dot. The benchmark's own root spans are layer "bench".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span id, so that child spans can name a parent that
// ends after them.
func (l *spanLog) newID() int64 { return l.ids.Add(1) }

// record appends a finished span under a reserved id.
func (l *spanLog) record(id int64, name string, op, parent int64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
}

// add records a finished span under parent (0 for a root span).
func (l *spanLog) add(name string, op, parent int64, start, end time.Time) {
	l.record(l.newID(), name, op, parent, start, end)
}

// selfTimes returns, per layer, the summed self time of its spans — a
// span's duration minus its children's — and the summed duration of
// the operations' root spans.
func (l *spanLog) selfTimes() (self map[string]time.Duration, total time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[int64]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]time.Duration{}
	for _, s := range l.spans {
		self[s.layer()] += time.Duration(s.End - s.Start - child[s.ID])
		if s.Parent == 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	return self, total
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layerShares fills the per-layer metrics: each layer's self time as a
// percentage of the operation time, for every layer of the repository
// (0 where the workload does not reach it), the time outside any layer
// span, and the tracing overhead.
func layerShares(self map[string]time.Duration, total time.Duration, overhead float64) metrics {
	m := metrics{}
	for _, l := range []string{"sim", "trace", "core", "report", "campaign", "onthefly", "stream"} {
		m.set(l+".self_pct", pct(float64(self[l]), float64(total)), "%")
	}
	m.set("bench.unattributed_pct", pct(float64(self["bench"]), float64(total)), "%")
	m.set("bench.trace_overhead_pct", overhead, "%")
	return m
}
