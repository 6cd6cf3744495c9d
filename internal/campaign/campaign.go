// Package campaign drives the detector the way a user hunts bugs with it:
// run a program under many seeds on a weak model, analyze every execution
// post-mortem, and aggregate the races across executions — how often each
// static race occurred, how often it sat in a first partition, and which
// executions to replay for debugging.
//
// Dynamic detection "provide[s] precise information about a single
// execution [but] little information about other executions" (§1); a
// campaign is the standard mitigation — rerun under many schedules and
// union the evidence.
package campaign

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/obs"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// Config describes a campaign.
type Config struct {
	// Workload is the program under test.
	Workload *workload.Workload
	// Model is the memory model to run on. Default WO.
	Model memmodel.Model
	// Seeds is the number of executions. Default 100.
	Seeds int
	// RetireProb forwards to the simulator (0 = simulator default).
	RetireProb float64
	// Pairing forwards to the detector.
	Pairing memmodel.PairingPolicy
	// Workers bounds parallelism. Default GOMAXPROCS.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 100
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// RaceStat aggregates one static race across the campaign.
type RaceStat struct {
	// Race is the static identity.
	Race core.LowerLevelRace
	// Occurrences counts executions exhibiting the race.
	Occurrences int
	// FirstPartition counts executions where the race sat in a first
	// partition — the executions worth debugging first.
	FirstPartition int
	// ExampleSeed is a seed exhibiting the race (smallest; in a first
	// partition when possible), for replay.
	ExampleSeed int64
	exampleIsFP bool
}

// Report is the aggregated campaign outcome.
type Report struct {
	Config Config
	// Executions counts the seeds that ran and analyzed successfully
	// (Seeds - Failed). Aggregate statistics cover only these.
	Executions int
	// Racy counts executions with at least one data race.
	Racy int
	// Incomplete counts executions that hit MaxSteps (spin starvation).
	Incomplete int
	// Failed counts seeds whose simulation or analysis errored. A failed
	// seed is dropped from aggregation, not fatal: the campaign's value is
	// the union of evidence across schedules, and discarding ninety-nine
	// good executions over one bad seed inverts that.
	Failed int
	// FirstError describes the first (lowest-seed) failure, empty when
	// Failed == 0.
	FirstError string
	// Races lists the distinct static races, most frequent first.
	Races []RaceStat
}

// RaceFree reports whether no execution exhibited a data race.
func (r *Report) RaceFree() bool { return r.Racy == 0 }

// Options holds per-run hooks that are not part of the campaign's
// deterministic configuration.
type Options struct {
	// Progress, when set, is called as executions complete, with done
	// strictly increasing and ending exactly at total. Calls are
	// serialized but come from worker goroutines; keep the callback fast.
	// By default it fires after every execution; ProgressEvery and
	// ProgressInterval coalesce it.
	Progress func(done, total int)
	// ProgressEvery suppresses Progress until at least this many
	// executions completed since the last call (the final completion
	// always fires). 0 or 1 keeps the per-execution default.
	ProgressEvery int
	// ProgressInterval, when positive, also fires Progress when this
	// much time has passed since the last call — so a coarse
	// ProgressEvery still produces a heartbeat on slow workloads.
	ProgressInterval time.Duration
	// Publisher, when non-nil, receives live observability events: a
	// progress event per completion (the SSE layer coalesces bursts) and
	// a race event the first time each distinct static race is seen.
	// With no subscribers each publish costs one atomic load.
	Publisher *obs.Publisher
	// Flight, when non-nil, records one summary record per seed (duration,
	// race/partition counts, failure) into the flight recorder. The
	// campaign deliberately does NOT forward the recorder into each seed's
	// core.Analyze: a 500-seed hunt wants 500 summaries, not 500 full
	// event/edge dumps. Replay the interesting seed with a recorder
	// attached to get the full log.
	Flight *export.Recorder
	// Tracer, when non-nil, opens one trace per seed (key "seed-<n>",
	// simulate and analyze spans) and tail-samples the finished traces:
	// racy and failed seeds always keep theirs for /trace/{key}, the
	// rest survive only in the aggregate phase histograms.
	Tracer *telemetry.Tracer
	// Watchdog, when non-nil, receives each seed's total duration keyed
	// by "seed-<n>", so an SLO breach captures that seed's trace.
	Watchdog *obs.Watchdog
}

// Run executes the campaign, fanning executions across workers. The
// report is deterministic for a given Config regardless of Workers. It is
// RunWithOptions without hooks, kept for existing callers.
func Run(cfg Config) (*Report, error) {
	return RunWithOptions(cfg, Options{})
}

// simRun is sim.RunInto, indirected so tests can inject per-seed
// failures.
var simRun = sim.RunInto

// scratch is one in-flight seed's reusable set: the simulator's, the
// trace builder's and the detector's arenas, and the buffer its races
// expand into. Each arena's slabs are retained by what it built — the
// sim.Result, the trace, the Analysis — so a set serves one seed at a
// time and is reused only once that seed's analysis is dead.
type scratch struct {
	sim   sim.Arena
	trace trace.Arena
	core  core.Arena
	lower []core.LowerLevelRace
}

// scratchPool outlives a campaign: back-to-back campaigns reuse the
// grown arenas instead of each regrowing a full set per worker.
// sync.Pool drops idle sets under GC, so a finished hunt's scratch does
// not pin memory.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// analyze simulates one of cfg's executions and analyzes it, both
// through sc's arenas, recording simulate and analyze spans into str
// (nil-safe). The Result and Analysis alias sc, so they are dead once
// sc is reused. r is nil when the simulation failed.
func (sc *scratch) analyze(cfg Config, seed int, str *telemetry.StreamTrace) (r *sim.Result, a *core.Analysis, err error) {
	simStart := time.Now()
	r, err = simRun(cfg.Workload.Prog, sim.Config{
		Model: cfg.Model, Seed: int64(seed),
		RetireProb: cfg.RetireProb,
		InitMemory: cfg.Workload.InitMemory,
	}, &sc.sim)
	str.Record("simulate", -1, simStart, time.Since(simStart))
	if err != nil {
		return nil, nil, err
	}
	anStart := time.Now()
	a, err = core.Analyze(trace.FromExecutionInto(r.Exec, &sc.trace),
		core.Options{Pairing: cfg.Pairing, Arena: &sc.core})
	str.Record("analyze", -1, anStart, time.Since(anStart))
	return r, a, err
}

// RunWithOptions executes the campaign with per-run hooks: progress
// callbacks fire as seeds complete, and (when the default telemetry
// registry is enabled) per-seed phase timings and aggregate counters are
// recorded.
func RunWithOptions(cfg Config, opts Options) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("campaign: no workload")
	}
	reg := telemetry.Default()
	defer reg.StartSpan("campaign.run").End()
	start := time.Now()

	// Live observability. The counters let /status and /metrics show a
	// campaign mid-flight; the distinct-race set feeds first-occurrence
	// race events. All of it is skipped when nobody is watching: the
	// registry disabled and no Publisher means seedDone returns at once.
	telemetryOn := reg.Enabled()
	var (
		seedsDoneC, seedsFailedC, seedsRacyC *telemetry.Counter
		racesDistinctG                       *telemetry.Gauge
	)
	if telemetryOn {
		reg.Gauge("campaign.seeds_total").Set(int64(cfg.Seeds))
		seedsDoneC = reg.Counter("campaign.seeds_done")
		seedsFailedC = reg.Counter("campaign.seeds_failed")
		seedsRacyC = reg.Counter("campaign.seeds_racy")
		racesDistinctG = reg.Gauge("campaign.races_distinct")
	}

	type seedResult struct {
		racy       bool
		incomplete bool
		races      map[core.LowerLevelRace]bool // race -> in first partition
		firsts     map[core.LowerLevelRace]bool
	}
	results := make([]*seedResult, cfg.Seeds)
	errs := make([]error, cfg.Seeds)

	every := opts.ProgressEvery
	if every < 1 {
		every = 1
	}
	var (
		progressMu sync.Mutex
		doneCount  int
		lastFired  int
		lastFireAt = start
		liveFailed int
		liveRacy   int
		liveSeen   = map[core.LowerLevelRace]bool{}
	)
	observing := opts.Progress != nil || opts.Publisher != nil || telemetryOn
	seedDone := func(seed int, res *seedResult, err error) {
		if !observing {
			return
		}
		if telemetryOn {
			seedsDoneC.Inc()
			if err != nil {
				seedsFailedC.Inc()
			} else if res != nil && res.racy {
				seedsRacyC.Inc()
			}
		}
		// Everything below runs under the mutex so done values arrive
		// strictly increasing even with many workers.
		progressMu.Lock()
		defer progressMu.Unlock()
		doneCount++
		if err != nil {
			liveFailed++
		}
		if res != nil {
			if res.racy {
				liveRacy++
			}
			for race := range res.races {
				if liveSeen[race] {
					continue
				}
				liveSeen[race] = true
				if telemetryOn {
					racesDistinctG.Set(int64(len(liveSeen)))
				}
				opts.Publisher.Publish(obs.Event{
					Kind: obs.EventRace, Race: race.String(), Seed: int64(seed),
				})
			}
		}
		if opts.Progress != nil {
			fire := doneCount == cfg.Seeds || doneCount-lastFired >= every
			if !fire && opts.ProgressInterval > 0 {
				fire = time.Since(lastFireAt) >= opts.ProgressInterval
			}
			if fire {
				lastFired = doneCount
				lastFireAt = time.Now()
				opts.Progress(doneCount, cfg.Seeds)
			}
		}
		opts.Publisher.Publish(obs.Event{
			Kind: obs.EventProgress, Done: doneCount, Total: cfg.Seeds,
			Failed: liveFailed, Racy: liveRacy, DistinctRaces: len(liveSeen),
		})
	}

	// Each worker takes one scratch set for the seeds it runs, so the
	// simulator's op log, the trace slabs and the detector's buffers
	// grow once per worker and are reused seed after seed.
	runSeed := func(seed int, sc *scratch) {
		// Deferred closure: results[seed]/errs[seed] are in place by the
		// time the seed returns, whichever path it took.
		defer func() { seedDone(seed, results[seed], errs[seed]) }()
		sp := reg.StartSpan("campaign.seed")
		defer sp.End()
		// Per-seed trace: simulate and analyze spans under one key, so
		// racehunt serves /trace/seed-N for every racy or failed seed.
		var str *telemetry.StreamTrace
		if opts.Tracer != nil {
			key := fmt.Sprintf("seed-%d", seed)
			id := telemetry.TraceID(uint64(start.UnixNano())<<16 | uint64(seed)&0xffff)
			str = opts.Tracer.Begin(key, id, 0, cfg.Workload.Name, cfg.Model.String(), int64(seed))
			seedStart := time.Now()
			defer func() {
				dur := time.Since(seedStart)
				res := results[seed]
				opts.Tracer.Finish(str, telemetry.TraceOutcome{
					Racy:    res != nil && res.racy,
					Errored: errs[seed] != nil,
				})
				opts.Watchdog.Observe("campaign.seed", dur, key)
			}()
		}
		// The seed summary is timed and emitted only when a recorder is
		// attached; the default path costs one nil check.
		var seedStart time.Time
		if opts.Flight != nil {
			seedStart = time.Now()
		}
		emitSeed := func(a *core.Analysis, incomplete bool, err error) {
			if opts.Flight == nil {
				return
			}
			rec := &export.SeedRec{
				Seed:       int64(seed),
				DurNS:      int64(time.Since(seedStart)),
				Incomplete: incomplete,
			}
			if err != nil {
				rec.Failed, rec.Error = true, err.Error()
			} else {
				rec.Events = a.NumEvents
				rec.Races = len(a.Races) + a.SyncRaces
				rec.DataRaces = len(a.Races)
				rec.Partitions = len(a.Partitions)
				rec.FirstPartitions = len(a.FirstPartitions)
				rec.Racy = !a.RaceFree()
			}
			opts.Flight.Emit(export.Record{Kind: export.KindSeed, Seed: rec})
		}
		r, a, err := sc.analyze(cfg, seed, str)
		if err != nil {
			errs[seed] = err
			emitSeed(nil, r != nil && !r.Completed, err)
			return
		}
		res := &seedResult{incomplete: !r.Completed, racy: !a.RaceFree()}
		emitSeed(a, res.incomplete, nil)
		if res.racy {
			res.races = map[core.LowerLevelRace]bool{}
			res.firsts = map[core.LowerLevelRace]bool{}
		}
		for ri, race := range a.Races {
			pi := a.RaceOfPartition(ri)
			isFirst := pi >= 0 && a.Partitions[pi].First
			sc.lower = a.AppendLowerLevel(sc.lower[:0], race)
			for _, ll := range sc.lower {
				key := ll.Canonical()
				res.races[key] = true
				if isFirst {
					res.firsts[key] = true
				}
			}
		}
		results[seed] = res
	}

	var (
		wg   sync.WaitGroup
		next atomic.Int64 // the next seed to claim
	)
	for range max(1, min(cfg.Workers, cfg.Seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*scratch)
			defer scratchPool.Put(sc)
			for {
				seed := int(next.Add(1) - 1)
				if seed >= cfg.Seeds {
					return
				}
				runSeed(seed, sc)
			}
		}()
	}
	wg.Wait()

	// A failed seed is recorded, not fatal: keep every successful
	// execution's evidence and surface the first failure in the report.
	// Only a campaign in which *every* seed failed returns an error.
	rep := &Report{Config: cfg}
	for seed, err := range errs {
		if err != nil {
			rep.Failed++
			if rep.FirstError == "" {
				rep.FirstError = fmt.Sprintf("seed %d: %v", seed, err)
			}
		}
	}
	rep.Executions = cfg.Seeds - rep.Failed
	if rep.Failed == cfg.Seeds {
		return nil, fmt.Errorf("campaign: all %d seeds failed: %s", cfg.Seeds, rep.FirstError)
	}

	agg := map[core.LowerLevelRace]*RaceStat{}
	for seed, res := range results {
		if res == nil {
			continue // failed seed
		}
		if res.incomplete {
			rep.Incomplete++
		}
		if res.racy {
			rep.Racy++
		}
		for race := range res.races {
			st := agg[race]
			if st == nil {
				st = &RaceStat{Race: race, ExampleSeed: int64(seed), exampleIsFP: res.firsts[race]}
				agg[race] = st
			}
			st.Occurrences++
			if res.firsts[race] {
				st.FirstPartition++
				if !st.exampleIsFP {
					st.ExampleSeed = int64(seed)
					st.exampleIsFP = true
				}
			}
		}
	}
	for _, st := range agg {
		rep.Races = append(rep.Races, *st)
	}
	sort.Slice(rep.Races, func(i, j int) bool {
		a, b := rep.Races[i], rep.Races[j]
		if a.Occurrences != b.Occurrences {
			return a.Occurrences > b.Occurrences
		}
		return a.Race.String() < b.Race.String()
	})
	if reg.Enabled() {
		reg.Counter("campaign.runs").Inc()
		reg.Counter("campaign.executions").Add(int64(rep.Executions))
		reg.Counter("campaign.racy_executions").Add(int64(rep.Racy))
		reg.Counter("campaign.incomplete_executions").Add(int64(rep.Incomplete))
		reg.Counter("campaign.failed_executions").Add(int64(rep.Failed))
		reg.Counter("campaign.distinct_races").Add(int64(len(rep.Races)))
		var occurrences int64
		for _, st := range rep.Races {
			occurrences += int64(st.Occurrences)
		}
		reg.Counter("campaign.race_occurrences").Add(occurrences)
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			reg.Gauge("campaign.races_per_sec").Set(int64(float64(occurrences) / elapsed))
			reg.Gauge("campaign.execs_per_sec").Set(int64(float64(rep.Executions) / elapsed))
		}
	}
	return rep, nil
}

// Render writes the campaign report. The header carries the aggregate
// distinct-race count and the failed-seed ratio so a long report is
// skimmable from its first line.
func (r *Report) Render(w io.Writer) error {
	seeds := r.Executions + r.Failed
	_, err := fmt.Fprintf(w, "campaign: %s on %s, %d executions (%d racy, %d incomplete), %d distinct races, %d/%d seeds failed\n",
		r.Config.Workload.Name, r.Config.Model, r.Executions, r.Racy, r.Incomplete,
		len(r.Races), r.Failed, seeds)
	if err != nil {
		return err
	}
	if r.Failed > 0 {
		if _, err := fmt.Fprintf(w, "%d seeds failed (first: %s)\n", r.Failed, r.FirstError); err != nil {
			return err
		}
	}
	if r.RaceFree() {
		_, err := fmt.Fprintf(w, "no data races in any execution: every run was sequentially consistent (Condition 3.4).\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-45s %6s %10s %8s\n", "race", "seen", "first-part", "replay"); err != nil {
		return err
	}
	for _, st := range r.Races {
		if _, err := fmt.Fprintf(w, "%-45s %6d %10d %8d\n",
			st.Race, st.Occurrences, st.FirstPartition, st.ExampleSeed); err != nil {
			return err
		}
	}
	return nil
}
