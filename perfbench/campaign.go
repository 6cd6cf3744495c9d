package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"weakrace/internal/campaign"
	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// campaignWorkers is the campaign's worker count, fixed so the figure
// does not depend on the machine's CPU count.
const campaignWorkers = 2

// campaignConfig is racehunt's default hunt: the buggy locked counter
// (4 CPUs, 6 iterations, one CPU skipping its lock on the last one) on
// WO with retire probability 0.15. The seed picks which CPU is buggy —
// seed 1 is racehunt's buggy-counter — because campaign.Run always runs
// executions 0..Seeds−1 and takes no other input.
func campaignConfig(seed int64, tiny bool) campaign.Config {
	seeds := 64
	if tiny {
		seeds = 4
	}
	return campaign.Config{
		Workload:   workload.LockedCounter(4, 6, int(uint64(seed)%4)),
		Model:      memmodel.WO,
		Seeds:      seeds,
		RetireProb: 0.15,
		Workers:    campaignWorkers,
	}
}

// campaignKey renders the parts of a campaign report that must be the
// same on every run: failures, racy executions, and the distinct races
// with their counts and example seeds.
func campaignKey(r *campaign.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "executions=%d failed=%d racy=%d incomplete=%d\n", r.Executions, r.Failed, r.Racy, r.Incomplete)
	for _, st := range r.Races {
		fmt.Fprintf(&b, "%v occ=%d first=%d example=%d\n", st.Race, st.Occurrences, st.FirstPartition, st.ExampleSeed)
	}
	return b.String()
}

// checkCampaign checks a timed campaign against the reference run.
func checkCampaign(ref string, got *campaign.Report) error {
	if got.Failed != 0 {
		return fmt.Errorf("%d seeds failed: %s", got.Failed, got.FirstError)
	}
	if k := campaignKey(got); k != ref {
		return fmt.Errorf("campaign report differs from the reference run:\n%s\nwant:\n%s", k, ref)
	}
	return nil
}

// campaignSim simulates one of the campaign's executions as campaign.Run
// does.
func campaignSim(cc campaign.Config, seed int) (*sim.Result, error) {
	return sim.Run(cc.Workload.Prog, sim.Config{
		Model: cc.Model, Seed: int64(seed), RetireProb: cc.RetireProb, InitMemory: cc.Workload.InitMemory,
	})
}

// otfCampaign is the reference campaign's independent oracle: the
// on-the-fly detector's races, at an unbounded window, on each of the
// campaign's executions.
func otfCampaign(cc campaign.Config) ([]map[core.LowerLevelRace]bool, error) {
	sets := make([]map[core.LowerLevelRace]bool, cc.Seeds)
	for s := range sets {
		r, err := campaignSim(cc, s)
		if err != nil {
			return nil, err
		}
		sets[s] = onthefly.Detect(r.Exec, onthefly.Options{}).Races
	}
	return sets, nil
}

// coarseRace is a race projected to its CPUs, location and access modes.
// The on-the-fly detector tells program points apart more finely than a
// trace event records them, so the two detectors agree exactly only on
// this projection.
type coarseRace struct {
	xCPU, yCPU, loc int
	xW, yW          bool
}

func coarse(ll core.LowerLevelRace) coarseRace {
	return coarseRace{ll.X.CPU, ll.Y.CPU, int(ll.Loc), ll.XWrites, ll.YWrites}
}

// checkCampaignOracle checks a campaign report against the on-the-fly
// races of its executions. Every post-mortem data race is an on-the-fly
// race of the same execution, and every on-the-fly race has a
// post-mortem counterpart up to program points, so:
//   - each reported race is an on-the-fly race of its example seed, and
//     occurs in no more executions than the on-the-fly detector saw it in;
//   - the racy executions are exactly those with on-the-fly races;
//   - every on-the-fly race has a reported race with its projection.
func checkCampaignOracle(rep *campaign.Report, otf []map[core.LowerLevelRace]bool) error {
	reported := map[coarseRace]bool{}
	for _, st := range rep.Races {
		reported[coarse(st.Race)] = true
		if st.ExampleSeed < 0 || st.ExampleSeed >= int64(len(otf)) || !otf[st.ExampleSeed][st.Race] {
			return fmt.Errorf("race %v is not an on-the-fly race of its example seed %d", st.Race, st.ExampleSeed)
		}
		seen := 0
		for _, set := range otf {
			if set[st.Race] {
				seen++
			}
		}
		if st.Occurrences > seen {
			return fmt.Errorf("race %v reported in %d executions, on the fly in %d", st.Race, st.Occurrences, seen)
		}
	}
	racy := 0
	for s, set := range otf {
		if len(set) > 0 {
			racy++
		}
		for ll := range set {
			if !reported[coarse(ll)] {
				return fmt.Errorf("on-the-fly race %v of seed %d has no reported counterpart", ll, s)
			}
		}
	}
	if racy != rep.Racy {
		return fmt.Errorf("%d racy executions reported, %d on the fly", rep.Racy, racy)
	}
	return nil
}

// regPhase is a telemetry phase's observation count and total time.
type regPhase struct {
	n   int64
	sum time.Duration
}

// campaignPhases are the registry phases that time one campaign seed and
// the layer calls inside it, and the counters that count its work.
var (
	campaignPhases   = []string{"campaign.seed", "sim.run", "trace.build", "detect.analyze"}
	campaignCounters = []string{"trace.builds", "trace.ops", "detect.analyses", "detect.races", "detect.data_races"}
)

// registryState reads the phases and counters named.
func registryState(reg *telemetry.Registry, phases, counters []string) (map[string]regPhase, map[string]int64) {
	ps := map[string]regPhase{}
	for _, p := range phases {
		h := reg.Phase(p)
		ps[p] = regPhase{h.Count(), h.Sum()}
	}
	cs := map[string]int64{}
	for _, c := range counters {
		cs[c] = reg.Counter(c).Value()
	}
	return ps, cs
}

func runCampaign(cfg config) (*outcome, error) {
	type input struct {
		cc  campaign.Config
		ref *campaign.Report
		key string
		otf []map[core.LowerLevelRace]bool
	}
	// Set-up builds the workload, runs the reference campaign every timed
	// run must reproduce, and runs the on-the-fly oracle on its executions.
	in, setupS, err := timedSetup(func() (input, string, error) {
		cc := campaignConfig(cfg.seed, cfg.tiny)
		ref, err := campaign.Run(cc)
		if err != nil {
			return input{}, "", err
		}
		otf, err := otfCampaign(cc)
		if err != nil {
			return input{}, "", err
		}
		key := campaignKey(ref)
		return input{cc, ref, key, otf}, key, nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{named: metrics{}}
	fail := func(err error) {
		out.failed++
		fmt.Fprintf(cfg.log, "perfbench: campaign: %v\n", err)
	}
	// The reference campaign counts as an operation, checked against the
	// oracle.
	out.attempted++
	if err := checkCampaign(in.key, in.ref); err != nil {
		fail(err)
	} else if err := checkCampaignOracle(in.ref, in.otf); err != nil {
		fail(fmt.Errorf("reference campaign: %w", err))
	}

	// one runs a campaign and checks it; it returns the campaign's wall
	// time. A non-nil log gets a bench.campaign span for the operation and
	// a campaign.run span for the call into the campaign layer.
	var op int64
	one := func(log *spanLog) time.Duration {
		op++
		root := int64(0)
		if log != nil {
			root = log.newID()
		}
		t0 := time.Now()
		rep, err := campaign.Run(in.cc)
		t1 := time.Now()
		out.attempted++
		if err == nil {
			err = checkCampaign(in.key, rep)
		}
		if err != nil {
			fail(err)
		}
		if log != nil {
			log.add("campaign.run", op, root, t0, t1)
			log.record(root, "bench.campaign", op, 0, t0, time.Now())
		}
		return t1.Sub(t0)
	}
	seeds := float64(in.cc.Seeds)
	loop := func(d time.Duration, log *spanLog) (ss []sample, start time.Time) {
		start = time.Now()
		for len(ss) == 0 || time.Since(start) < d {
			dur := one(log)
			ss = append(ss, sample{end: time.Now(), d: dur, work: seeds})
		}
		return ss, start
	}
	loop(cfg.warmup, nil)

	if !cfg.traced {
		mem := startMemSampler()
		ss, start := loop(cfg.dur(), nil)
		out.endToEnd(cfg.log, setupS, latencies(ss), 0.9, groupRate(start, ss, 1), mem.finish(),
			e2eNames{"campaign_ms_p50", "campaign_ms_p90", "seeds_per_s", "seeds/s", "campaigns_timed"})
		return out, nil
	}

	// Traced run: half the time untraced, then campaigns under spans with
	// the telemetry registry on. The calls into sim, trace and core happen
	// inside campaign.Run, so their per-seed times come from the phases the
	// registry already keeps for them.
	base, _ := loop(cfg.dur()/2, nil)
	reg := telemetry.Default()
	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	out.spans = newSpanLog()
	ps0, cs0 := registryState(reg, campaignPhases, campaignCounters)
	traced, _ := loop(cfg.dur()/2, out.spans)
	ps1, cs1 := registryState(reg, campaignPhases, campaignCounters)
	phase := func(p string) time.Duration { return ps1[p].sum - ps0[p].sum }
	count := func(c string) float64 { return float64(cs1[c] - cs0[c]) }
	nSeeds := float64(ps1["campaign.seed"].n - ps0["campaign.seed"].n)
	seedT, simT, trT, coreT := phase("campaign.seed"), phase("sim.run"), phase("trace.build"), phase("detect.analyze")
	self, opT := out.spans.selfTimes()
	runT := self["campaign"] // campaign.run spans have no children

	// Allocation probe: trace.FromExecutionInto on the campaign's first
	// executions through a warmed arena, as each campaign worker does.
	allocs := traceAllocProbe(in.cc, out.spans, op+1)

	// Shares of the campaign's worker time, wall time × workers: each
	// seed's layer calls; the campaign's own work, inside its seeds and
	// outside them (merging the seeds' races, starting workers, workers
	// idle while the last seeds finish); and the benchmark's checks
	// between campaigns.
	overhead := overheadPct(median(latencies(base)), median(latencies(traced)))
	out.layers = layerShares(map[string]time.Duration{
		"sim": simT, "trace": trT, "core": coreT,
		"campaign": runT*campaignWorkers - simT - trT - coreT,
		"bench":    (opT - runT) * campaignWorkers,
	}, opT*campaignWorkers, overhead)

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / nSeeds }
	n := out.named
	n.set("sim.run_us", us(simT), "us")
	n.set("sim.ops", count("trace.ops")/count("trace.builds"), "count")
	n.set("trace.from_execution_us", us(trT), "us")
	n.set("trace.allocs_per_seed", allocs, "count")
	n.set("core.analyze_us", us(coreT), "us")
	n.set("core.races_per_seed", count("detect.races")/count("detect.analyses"), "count")
	n.set("core.data_race_share", count("detect.data_races")/count("detect.races"), "ratio")
	n.set("campaign.other_us", us(seedT-simT-trT-coreT), "us")
	n.set("campaign.outside_seeds_us", us(runT*campaignWorkers-seedT), "us")
	n.set("campaign.seed_us", us(seedT), "us")
	n.set("bench.unattributed_us", us((opT-runT)*campaignWorkers), "us")
	// Every timed campaign reproduced the reference report
	// (checkCampaign), so its counts are the run's.
	n.set("campaign.distinct_races", float64(len(in.ref.Races)), "count")
	n.set("campaign.racy_seeds", float64(in.ref.Racy), "count")
	n.set("bench.trace_overhead_pct", overhead, "%")
	n.set("bench.traced_ops", float64(len(traced)), "count")
	return out, nil
}

// traceAllocProbe simulates the campaign's first 16 executions and
// counts the heap allocations of trace.FromExecutionInto for each
// through one reused arena, recording a span around each layer call. It
// returns the mean allocations per execution.
func traceAllocProbe(cc campaign.Config, log *spanLog, op int64) float64 {
	n := min(cc.Seeds, 16)
	ar := trace.NewArena()
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	probed := 0
	for s := 0; s < n; s++ {
		root := log.newID()
		t0 := time.Now()
		r, err := campaignSim(cc, s)
		t1 := time.Now()
		log.add("sim.run", op, root, t0, t1)
		if err != nil {
			log.record(root, "bench.alloc_probe", op, 0, t0, t1)
			continue
		}
		if s == 0 {
			trace.FromExecutionInto(r.Exec, ar) // grow the arena first
		}
		runtime.ReadMemStats(&ms0)
		t2 := time.Now()
		trace.FromExecutionInto(r.Exec, ar)
		t3 := time.Now()
		runtime.ReadMemStats(&ms1)
		log.add("trace.from_execution", op, root, t2, t3)
		log.record(root, "bench.alloc_probe", op, 0, t0, time.Now())
		mallocs += ms1.Mallocs - ms0.Mallocs
		probed++
	}
	return float64(mallocs) / float64(max(probed, 1))
}
