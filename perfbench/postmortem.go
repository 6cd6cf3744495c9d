package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// pmTrace is one input of the postmortem workload: an encoded trace file
// and, for the set's first trace until its first analysis has been
// checked against the on-the-fly oracle, the execution it came from.
type pmTrace struct {
	data   []byte
	exec   *sim.Execution
	digest [sha256.Size]byte // report digest of the first analysis
}

// pmTraces simulates, traces and encodes the workload's trace set:
// spin-contended random programs (4 CPUs, 2 locks, 30% unlocked
// segments) on WO, from about 30k to 70k events in even steps of the
// segment count, with generator and scheduler seeds drawn from seed.
// The set has an odd size so that the median and the 90th percentile of
// the per-trace times each fall inside one trace's cluster of samples,
// not in the gap between two.
func pmTraces(seed int64, tiny bool) ([]*pmTrace, string, error) {
	n, lo, hi := 7, 930, 2150
	if tiny {
		n, lo, hi = 2, 8, 16
	}
	rng := rand.New(rand.NewSource(seed))
	fp := sha256.New()
	out := make([]*pmTrace, n)
	for i := range out {
		w := workload.Random(workload.RandomParams{
			CPUs: 4, Locks: 2, UnlockedFraction: 0.3,
			Segments: lo + i*(hi-lo)/(n-1),
			Seed:     rng.Int63(),
		})
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: rng.Int63n(1 << 30), InitMemory: w.InitMemory})
		if err != nil {
			return nil, "", err
		}
		if !r.Completed {
			return nil, "", fmt.Errorf("%s: simulation hit its step limit", w.Name)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, trace.FromExecution(r.Exec)); err != nil {
			return nil, "", err
		}
		fp.Write(buf.Bytes())
		out[i] = &pmTrace{data: buf.Bytes()}
		if i == 0 {
			out[i].exec = r.Exec
		}
	}
	return out, fmt.Sprintf("%x", fp.Sum(nil)), nil
}

// pmResult is what one analysis of a trace produced.
type pmResult struct {
	a      *core.Analysis
	digest [sha256.Size]byte
}

// analyzeTrace is racedetect's path on one trace file: decode, analyse
// with validation on every CPU, render the report (into a digest).
func analyzeTrace(data []byte) (*pmResult, error) {
	tr, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(tr, core.Options{Workers: 0})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := report.RenderAnalysis(h, a); err != nil {
		return nil, err
	}
	res := &pmResult{a: a}
	h.Sum(res.digest[:0])
	return res, nil
}

// pmCounts are one traced analysis's layer times, allocation and work
// counts.
type pmCounts struct {
	op, decode, validate, analyze, render time.Duration
	allocBytes                            uint64
	candidates, hbEdges, augEdges         int64
}

// analyzeTraced is analyzeTrace with a span around each layer call.
// Validation is split out of Analyze as ValidateParallel followed by
// Analyze{SkipValidate}, the same work Analyze does internally.
func analyzeTraced(data []byte, log *spanLog, op int64) (*pmResult, *pmCounts, error) {
	reg := telemetry.Default()
	cand, hb, aug := reg.Counter("detect.race_candidates"), reg.Counter("detect.hb_edges"), reg.Counter("detect.aug_edges")
	c0, h0, a0 := cand.Value(), hb.Value(), aug.Value()
	var ms0, ms1 runtime.MemStats

	root := log.newID()
	t0 := time.Now()
	tr, err := trace.Decode(bytes.NewReader(data))
	t1 := time.Now()
	log.add("trace.decode", op, root, t0, t1)
	if err != nil {
		return nil, nil, err
	}
	err = tr.ValidateParallel(0)
	t2 := time.Now()
	log.add("trace.validate", op, root, t1, t2)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms0)
	t3 := time.Now()
	a, err := core.Analyze(tr, core.Options{Workers: 0, SkipValidate: true})
	t4 := time.Now()
	log.add("core.analyze", op, root, t3, t4)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	h := sha256.New()
	t5 := time.Now()
	err = report.RenderAnalysis(h, a)
	t6 := time.Now()
	log.add("report.render", op, root, t5, t6)
	if err != nil {
		return nil, nil, err
	}
	log.record(root, "bench.trace", op, 0, t0, t6)

	res := &pmResult{a: a}
	h.Sum(res.digest[:0])
	return res, &pmCounts{
		op: t6.Sub(t0), decode: t1.Sub(t0), validate: t2.Sub(t1), analyze: t4.Sub(t3), render: t6.Sub(t5),
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		candidates: cand.Value() - c0, hbEdges: hb.Value() - h0, augEdges: aug.Value() - a0,
	}, nil
}

// checkOracles checks a trace's first analysis against oracles that do
// not share its code: by Theorem 4.1 there are first partitions exactly
// when there are data races, and, when otf is given, the on-the-fly
// detector at an unbounded window must report every post-mortem
// lower-level data race.
func checkOracles(a *core.Analysis, otf *onthefly.Result) error {
	for _, ri := range a.DataRaces {
		for _, ll := range a.LowerLevel(a.Races[ri]) {
			if otf != nil && !otf.Races[ll.Canonical()] {
				return fmt.Errorf("post-mortem data race %v missed by the on-the-fly detector", ll)
			}
		}
	}
	if (len(a.FirstPartitions) == 0) != (len(a.DataRaces) == 0) {
		return fmt.Errorf("Theorem 4.1 violated: %d data races but %d first partitions",
			len(a.DataRaces), len(a.FirstPartitions))
	}
	return nil
}

// checkDigest checks a timed analysis's report against the first one.
func checkDigest(t *pmTrace, got [sha256.Size]byte) error {
	if got != t.digest {
		return fmt.Errorf("report digest %x differs from the first analysis's %x", got[:6], t.digest[:6])
	}
	return nil
}

func runPostmortem(cfg config) (*outcome, error) {
	traces, setupS, err := timedSetup(func() ([]*pmTrace, string, error) { return pmTraces(cfg.seed, cfg.tiny) })
	if err != nil {
		return nil, err
	}
	out := &outcome{named: metrics{}}
	fail := func(err error) {
		out.failed++
		fmt.Fprintf(cfg.log, "perfbench: postmortem: %v\n", err)
	}

	// Warm-up, one pass over the set: the pooled core arenas grow to the
	// traces' working set, and each trace's first analysis is checked
	// against the oracles and fixes the digest later analyses must match.
	// The on-the-fly oracle's cost grows quadratically with a contended
	// trace (0.7 s at 30k events, 4 s at 70k), so it checks the first,
	// smallest trace only.
	events := make([]float64, len(traces))
	var races, dataRaces, parts, firsts int
	for i, t := range traces {
		res, err := analyzeTrace(t.data)
		if err != nil {
			return nil, err
		}
		out.attempted++
		var otf *onthefly.Result
		if t.exec != nil {
			otf = onthefly.Detect(t.exec, onthefly.Options{})
		}
		if err := checkOracles(res.a, otf); err != nil {
			fail(fmt.Errorf("trace %d: %w", i, err))
		}
		t.digest, t.exec = res.digest, nil
		events[i] = float64(res.a.NumEvents)
		races += len(res.a.Races)
		dataRaces += len(res.a.DataRaces)
		parts += len(res.a.Partitions)
		firsts += len(res.a.FirstPartitions)
	}

	// untraced runs the closed loop untraced for d, in rounds over the
	// set, and returns the finished analyses.
	untraced := func(d time.Duration) (ss []sample, start time.Time) {
		start = time.Now()
		for i := 0; i%len(traces) != 0 || i == 0 || time.Since(start) < d; i++ {
			k := i % len(traces)
			t0 := time.Now()
			res, err := analyzeTrace(traces[k].data)
			s := sample{end: time.Now()}
			s.d = s.end.Sub(t0)
			out.attempted++
			if err == nil {
				err = checkDigest(traces[k], res.digest)
			}
			if err != nil {
				fail(err)
			} else {
				s.work = events[k]
			}
			ss = append(ss, s)
		}
		return ss, start
	}

	// The inputs' size, in both kinds of run, so that a run's figures can
	// be told apart from its inputs'.
	nt := float64(len(traces))
	n := out.named
	n.set("trace.events", median(events), "count")
	n.set("core.races", float64(races)/nt, "count")
	n.set("core.data_races", float64(dataRaces)/nt, "count")
	n.set("core.data_race_share", float64(dataRaces)/float64(races), "ratio")
	n.set("core.partitions", float64(parts)/nt, "count")
	n.set("core.first_partitions", float64(firsts)/nt, "count")

	untraced(cfg.warmup)

	if !cfg.traced {
		mem := startMemSampler()
		ss, start := untraced(cfg.dur())
		out.endToEnd(cfg.log, setupS, latencies(ss), 0.9, groupRate(start, ss, len(traces)), mem.finish(),
			e2eNames{"trace_ms_p50", "trace_ms_p90", "events_per_s", "events/s", "traces_timed"})
		return out, nil
	}

	// Traced run: half the time untraced, half traced, so the tracing
	// overhead is measured in the same process.
	base, _ := untraced(cfg.dur() / 2)
	reg := telemetry.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	out.spans = newSpanLog()
	var cs []*pmCounts
	perTrace := make([]*pmCounts, len(traces)) // each trace's first traced analysis
	start := time.Now()
	for i := 0; i%len(traces) != 0 || i == 0 || time.Since(start) < cfg.dur()/2; i++ {
		k := i % len(traces)
		res, c, err := analyzeTraced(traces[k].data, out.spans, int64(i+1))
		out.attempted++
		if err == nil {
			err = checkDigest(traces[k], res.digest)
		}
		if err != nil {
			fail(err)
			continue
		}
		cs = append(cs, c)
		if perTrace[k] == nil {
			perTrace[k] = c
		}
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("no traced analysis succeeded")
	}

	pick := func(f func(*pmCounts) float64) []float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return xs
	}
	opMS := pick(func(c *pmCounts) float64 { return ms(c.op) })
	overhead := overheadPct(median(latencies(base)), median(opMS))
	self, total := out.spans.selfTimes()
	out.layers = layerShares(self, total, overhead)

	n.set("trace.decode_ms", median(pick(func(c *pmCounts) float64 { return ms(c.decode) })), "ms")
	n.set("trace.validate_ms", median(pick(func(c *pmCounts) float64 { return ms(c.validate) })), "ms")
	n.set("core.analyze_ms", median(pick(func(c *pmCounts) float64 { return ms(c.analyze) })), "ms")
	n.set("core.alloc_mb", median(pick(func(c *pmCounts) float64 { return float64(c.allocBytes) / (1 << 20) })), "MB")
	n.set("report.render_ms", median(pick(func(c *pmCounts) float64 { return ms(c.render) })), "ms")
	n.set("bench.unattributed_ms", median(pick(func(c *pmCounts) float64 {
		return ms(c.op - c.decode - c.validate - c.analyze - c.render)
	})), "ms")
	// The detect.* counters are exact per analysis, so one analysis of
	// each trace gives their per-trace mean.
	var cand, hb, aug int64
	nf := 0.0
	for _, c := range perTrace {
		if c != nil {
			cand, hb, aug, nf = cand+c.candidates, hb+c.hbEdges, aug+c.augEdges, nf+1
		}
	}
	n.set("core.race_candidates", float64(cand)/nf, "count")
	n.set("core.hb_edges", float64(hb)/nf, "count")
	n.set("core.aug_edges", float64(aug)/nf, "count")
	n.set("bench.trace_overhead_pct", overhead, "%")
	n.set("bench.traced_ops", float64(len(cs)), "count")
	return out, nil
}
