package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/sim"
	"weakrace/internal/stream"
	"weakrace/internal/telemetry"
	"weakrace/internal/workload"
)

// streamConns is the number of client connections, each a closed loop.
const streamConns = 2

// streamBatch is the operations per wire batch: wrclient's default.
const streamBatch = 256

// stmExec is one execution the clients stream, with the race list the
// server must report for it.
type stmExec struct {
	e    *sim.Execution
	want []string
}

// localRaces is wrclient's -oracle rule: the execution's unbounded
// on-the-fly race list, canonical strings sorted.
func localRaces(e *sim.Execution) []string {
	res := onthefly.Detect(e, onthefly.Options{})
	races := make([]string, 0, len(res.Races))
	for ll := range res.Races {
		races = append(races, ll.String())
	}
	sort.Strings(races)
	return races
}

// checkStream checks a server summary against the local oracle.
func checkStream(x *stmExec, sum *stream.Summary) error {
	if !slices.Equal(sum.Races, x.want) {
		return fmt.Errorf("stream %d (%s seed %d): server reported %d races, oracle %d",
			sum.StreamID, x.e.ProgramName, x.e.Seed, len(sum.Races), len(x.want))
	}
	return nil
}

// stmExecs simulates the stream mix: 960 short streams the size of the
// differential corpus (workload.Corpus entries, about 115 operations)
// and 16 long ones, 4-CPU random programs with 30% unlocked segments on
// WO of about 3k to 11k operations in even steps. Long and short streams
// then carry about equal shares of the operations, so both the
// per-stream cost and the per-operation detector cost show in the
// throughput.
//
// The server shards streams over its workers by stream id, so a short
// stream that lands on the worker of a long stream in flight waits
// behind its batches. With long streams in flight about half the time,
// about a quarter of the short streams wait, and the median stays inside
// the unblocked ones instead of on the edge between the two kinds. The
// ratio is chosen for that steadiness; it is not taken from observed
// wrserve traffic.
//
// The seed draws the programs and the short streams' order; the mix's
// shape is fixed — a long stream then 60 short ones, the long streams
// alternating between the smallest and largest left — so that which
// streams overlap on the two connections does not change with the seed.
func stmExecs(seed int64, tiny bool) ([]*stmExec, string, error) {
	nShort, nLong, lo, hi := 960, 16, 67, 246
	if tiny {
		nShort, nLong, lo, hi = 4, 2, 4, 8
	}
	rng := rand.New(rand.NewSource(seed))
	sim1 := func(w *workload.Workload, model memmodel.Model, s int64) (*stmExec, error) {
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: s, InitMemory: w.InitMemory})
		if err != nil {
			return nil, err
		}
		return &stmExec{e: r.Exec, want: localRaces(r.Exec)}, nil
	}
	var short, long []*stmExec
	for _, c := range workload.Corpus(nShort, seed) {
		x, err := sim1(c.Workload, c.Model, c.Seed)
		if err != nil {
			return nil, "", err
		}
		short = append(short, x)
	}
	rng.Shuffle(len(short), func(i, j int) { short[i], short[j] = short[j], short[i] })
	for i := 0; i < nLong; i++ {
		w := workload.Random(workload.RandomParams{
			CPUs: 4, Locks: 2, UnlockedFraction: 0.3,
			Segments: lo + i*(hi-lo)/(nLong-1),
			Seed:     rng.Int63(),
		})
		x, err := sim1(w, memmodel.WO, rng.Int63n(1<<30))
		if err != nil {
			return nil, "", err
		}
		long = append(long, x)
	}
	var out []*stmExec
	per := nShort / nLong
	for j := 0; j < nLong; j++ {
		k := j / 2 // smallest left, then largest left
		if j%2 == 1 {
			k = nLong - 1 - j/2
		}
		out = append(out, long[k])
		out = append(out, short[j*per:(j+1)*per]...)
	}
	fp := ""
	for _, x := range out {
		fp += fmt.Sprintf("%s/%d/%d/%d;", x.e.ProgramName, x.e.Seed, x.e.NumOps(), len(x.want))
	}
	return out, fp, nil
}

// newServer starts an in-process server with wrserve's defaults (exact
// window, GOMAXPROCS workers) and, when traced, its per-stream tracer.
func newServer(tracer bool) (*stream.Server, error) {
	opts := stream.Options{Addr: "127.0.0.1:0", Registry: telemetry.Default()}
	if tracer {
		opts.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Registry: telemetry.Default()})
	}
	return stream.Serve(opts)
}

// stmSample is one finished stream as the client saw it: its latency
// from dial to summary and its operations as a sample, and, when traced,
// the summary and batch writes.
type stmSample struct {
	sample
	sum    *stream.Summary
	writes []batchWrite
}

// samplesOf returns the streams' samples.
func samplesOf(ss []stmSample) []sample {
	out := make([]sample, len(ss))
	for i, s := range ss {
		out[i] = s.sample
	}
	return out
}

// batchWrite is one batch's wire write as Send's OnBatch reports it.
type batchWrite struct {
	end time.Time
	d   time.Duration
}

func runStream(cfg config) (*outcome, error) {
	type input struct {
		execs []*stmExec
		srv   *stream.Server
	}
	var servers []*stream.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	// Set-up simulates the mix, computes each execution's oracle race
	// list, and starts the server.
	in, setupS, err := timedSetup(func() (input, string, error) {
		execs, fp, err := stmExecs(cfg.seed, cfg.tiny)
		if err != nil {
			return input{}, "", err
		}
		srv, err := newServer(true)
		if err != nil {
			return input{}, "", err
		}
		servers = append(servers, srv)
		return input{execs, srv}, fp, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range servers[:len(servers)-1] {
		s.Close() // servers of the earlier set-ups
	}
	servers = servers[len(servers)-1:]
	out := &outcome{named: metrics{}}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		out.failed++
		fmt.Fprintf(cfg.log, "perfbench: stream: %v\n", err)
	}

	// loop streams executions to srv from streamConns closed-loop clients
	// for d, in the mix's order, and returns the finished streams and the
	// wall time. A non-nil log gets a span per stream and per batch write.
	var next atomic.Int64
	var op atomic.Int64
	loop := func(srv *stream.Server, d time.Duration, log *spanLog) (all []stmSample, start time.Time) {
		var wg sync.WaitGroup
		per := make([][]stmSample, streamConns)
		start = time.Now()
		for c := 0; c < streamConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i == 0 || time.Since(start) < d; i++ {
					x := in.execs[int(next.Add(1)-1)%len(in.execs)]
					var s stmSample
					opts := stream.SendOptions{BatchSize: streamBatch, Timeout: time.Minute}
					if log != nil {
						opts.OnBatch = func(_ int, w time.Duration) {
							s.writes = append(s.writes, batchWrite{time.Now(), w})
						}
					}
					t0 := time.Now()
					sum, err := stream.Send(srv.Addr(), x.e, opts)
					s.end = time.Now()
					s.d = s.end.Sub(t0)
					mu.Lock()
					out.attempted++
					mu.Unlock()
					if err == nil {
						err = checkStream(x, sum)
					}
					if err != nil {
						fail(err)
					} else {
						s.sum, s.work = sum, float64(x.e.NumOps())
					}
					if s.sum != nil && log != nil {
						id, k := log.newID(), op.Add(1)
						for _, w := range s.writes {
							log.add("stream.client_write", k, id, w.end.Add(-w.d), w.end)
						}
						log.record(id, "bench.stream", k, 0, t0, s.end)
					}
					per[c] = append(per[c], s)
				}
			}(c)
		}
		wg.Wait()
		return slices.Concat(per...), start
	}
	// rate is the operations streamed per second: the median over groups
	// of one mix's worth of streams.
	rate := func(ss []stmSample, start time.Time) float64 {
		return groupRate(start, samplesOf(ss), len(in.execs))
	}

	loop(in.srv, cfg.warmup, nil)

	if !cfg.traced {
		mem := startMemSampler()
		ss, start := loop(in.srv, cfg.dur(), nil)
		out.endToEnd(cfg.log, setupS, latencies(samplesOf(ss)), 0.99, rate(ss, start), mem.finish(),
			e2eNames{"stream_ms_p50", "stream_ms_p99", "stream_ops_per_s", "ops/s", "streams_timed"})
		return out, nil
	}

	// Traced run, in three parts: untraced with the server's tracer on
	// (wrserve's default), the same with the tracer off, and traced —
	// the telemetry registry on and a span per stream and batch write.
	base := rate(loop(in.srv, cfg.dur()*2/5, nil))
	plain, err := newServer(false)
	if err != nil {
		return nil, err
	}
	servers = append(servers, plain)
	plainRate := rate(loop(plain, cfg.dur()/5, nil))
	reg := telemetry.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	out.spans = newSpanLog()
	feed0 := reg.Phase("stream.batch_feed").Sum()
	tss, tstart := loop(in.srv, cfg.dur()*2/5, out.spans)
	feedT := reg.Phase("stream.batch_feed").Sum() - feed0
	if len(tss) == 0 {
		return nil, fmt.Errorf("no traced stream succeeded")
	}

	// Standalone detector over the same executions, once each.
	var detOps, detCmp int
	var detT time.Duration
	for _, x := range in.execs {
		t0 := time.Now()
		res := onthefly.Detect(x.e, onthefly.Options{})
		detT += time.Since(t0)
		detOps += res.OpsProcessed
		detCmp += res.Comparisons
	}

	// The stream path is pipelined — the client writes while the server
	// feeds earlier batches — so it splits into detection (the server's
	// batch feeds) and everything else of a stream's lifetime.
	var streamT time.Duration
	var waitP99, feedP50, feedP99, writes []float64
	highWater := 0
	for _, s := range tss {
		if s.sum == nil {
			continue
		}
		streamT += s.d
		waitP99 = append(waitP99, float64(s.sum.BatchWaitP99NS)/1e3)
		feedP50 = append(feedP50, float64(s.sum.BatchFeedP50NS)/1e3)
		feedP99 = append(feedP99, float64(s.sum.BatchFeedP99NS)/1e3)
		highWater = max(highWater, s.sum.QueueHighWater)
		for _, w := range s.writes {
			writes = append(writes, float64(w.d)/1e3)
		}
	}
	overhead := overheadPct(1/base, 1/rate(tss, tstart))
	out.layers = layerShares(map[string]time.Duration{
		"onthefly": feedT, "stream": streamT - feedT,
	}, streamT, overhead)

	n := out.named
	n.set("stream.batch_wait_us_p99", quantile(waitP99, 0.99), "us")
	n.set("stream.queue_high_water", float64(highWater), "count")
	n.set("stream.batch_feed_us_p50", median(feedP50), "us")
	n.set("stream.batch_feed_us_p99", quantile(feedP99, 0.99), "us")
	n.set("stream.client_write_us_p99", quantile(writes, 0.99), "us")
	n.set("onthefly.detect_ops_per_s", float64(detOps)/detT.Seconds(), "ops/s")
	n.set("onthefly.comparisons_per_op", float64(detCmp)/float64(detOps), "count")
	n.set("telemetry.stream_tracing_overhead_pct", overheadPct(1/plainRate, 1/base), "%")
	n.set("bench.trace_overhead_pct", overhead, "%")
	n.set("bench.traced_ops", float64(len(tss)), "count")
	return out, nil
}
