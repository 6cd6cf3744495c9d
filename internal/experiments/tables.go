package experiments

import (
	"fmt"
	"io"
	"time"

	"weakrace/internal/core"
	"weakrace/internal/lockset"
	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/report"
	"weakrace/internal/scp"
	"weakrace/internal/sim"
	"weakrace/internal/stats"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// Config scales the experiment tables.
type Config struct {
	// Seeds is the number of simulated executions per cell (default 20).
	Seeds int
	// GroundTruthSeeds is the number of SC samples for Theorem 4.2
	// validation (default 200).
	GroundTruthSeeds int
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 20
	}
	if c.GroundTruthSeeds == 0 {
		c.GroundTruthSeeds = 200
	}
	return c
}

// throughputWorkloads are the programs used for the performance tables.
func throughputWorkloads() []*workload.Workload {
	return []*workload.Workload{
		workload.WriteBurst(4, 12, 4),
		workload.LockedCounter(4, 8, -1),
		workload.Random(workload.RandomParams{Seed: 1, CPUs: 4, Segments: 10}),
		workload.BarrierPhases(4),
	}
}

// racyWorkloads are the programs used for the accuracy tables.
func racyWorkloads() []*workload.Workload {
	return []*workload.Workload{
		workload.Figure2(),
		workload.RaceChain(4),
		workload.LockedCounter(3, 4, 1),
		workload.ProducerConsumer(4, false),
		workload.Random(workload.RandomParams{Seed: 2, CPUs: 3, Segments: 5, UnlockedFraction: 0.4}),
	}
}

// raceFreeWorkloads are the programs used for the ablation table.
func raceFreeWorkloads() []*workload.Workload {
	return []*workload.Workload{
		workload.Figure1b(),
		workload.LockedCounter(3, 3, -1),
		workload.ProducerConsumer(4, true),
	}
}

// Table1 quantifies the paper's motivation (§1, §2.2): weak models
// outperform sequential consistency because data writes retire from a
// store buffer in the background instead of stalling the processor, and
// the stall is paid only at synchronization points — per release on
// RCsc/DRF1, per synchronization operation on WO/DRF0, per write on SC.
// The metric is the makespan (largest per-processor cycle count) under
// the simulator's MemLatency cost model.
func Table1(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T1. Weak-model performance: makespan cycles (MemLatency model; lower is better)",
		"workload", "model", "makespan", "cycles/op", "speedup vs SC")
	for _, w := range throughputWorkloads() {
		scCycles := 0.0
		for _, model := range memmodel.All {
			var makespans, perOp []float64
			for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
				r, err := sim.Run(w.Prog, sim.Config{
					Model: model, Seed: seed, InitMemory: w.InitMemory,
					RetireProb: 0.5,
				})
				if err != nil {
					return err
				}
				makespans = append(makespans, float64(r.Makespan()))
				perOp = append(perOp, float64(r.Makespan())/float64(r.Exec.NumOps()))
			}
			s := stats.Summarize(makespans)
			if model == memmodel.SC {
				scCycles = s.Mean
			}
			tbl.AddRow(w.Name, model, s.Mean, stats.Summarize(perOp).Mean,
				stats.Ratio(scCycles, s.Mean))
		}
	}
	return tbl.Render(out)
}

// Table2 quantifies §5's overhead claim for the execution-time side: the
// cost of producing the trace (event grouping + encoding) relative to the
// simulation itself.
func Table2(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T2. Tracing overhead: simulate vs simulate+trace+encode",
		"workload", "sim ms", "sim+trace ms", "overhead %", "trace events")
	for _, w := range throughputWorkloads() {
		var simOnly, simTrace []float64
		events := 0
		for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
			cfgSim := sim.Config{Model: memmodel.WO, Seed: seed, InitMemory: w.InitMemory}
			start := time.Now()
			r, err := sim.Run(w.Prog, cfgSim)
			if err != nil {
				return err
			}
			simOnly = append(simOnly, float64(time.Since(start).Microseconds())/1000)

			start = time.Now()
			r2, err := sim.Run(w.Prog, cfgSim)
			if err != nil {
				return err
			}
			tr := trace.FromExecution(r2.Exec)
			if err := trace.Encode(io.Discard, tr); err != nil {
				return err
			}
			simTrace = append(simTrace, float64(time.Since(start).Microseconds())/1000)
			events = tr.NumEvents()
			_ = r
		}
		a, b := stats.Summarize(simOnly), stats.Summarize(simTrace)
		tbl.AddRow(w.Name, a.Mean, b.Mean, 100*(stats.Ratio(b.Mean, a.Mean)-1), events)
	}
	return tbl.Render(out)
}

// Table3 quantifies §5's overhead claim for the post-mortem side: analysis
// cost as the number of trace events grows.
func Table3(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T3. Post-mortem analysis cost vs trace size",
		"segments", "events", "races", "analyze ms")
	for _, segments := range []int{4, 8, 16, 32} {
		w := workload.Random(workload.RandomParams{
			Seed: 5, CPUs: 4, Segments: segments, UnlockedFraction: 0.3,
		})
		var ms []float64
		events, races := 0, 0
		for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
			r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed})
			if err != nil {
				return err
			}
			tr := trace.FromExecution(r.Exec)
			start := time.Now()
			a, err := core.Analyze(tr, core.Options{})
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(start).Microseconds())/1000)
			events = tr.NumEvents()
			races = len(a.Races)
		}
		tbl.AddRow(segments, events, races, stats.Summarize(ms).Mean)
	}
	return tbl.Render(out)
}

// Table4 quantifies §4.2/§5's accuracy claims: first-partition reporting
// narrows the report relative to naive all-races reporting, while every
// first partition still contains a race that occurs under SC
// (Theorem 4.2, validated against sampled SC ground truth).
func Table4(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T4. Report accuracy: naive all-races vs first partitions (mean over racy seeds)",
		"workload", "racy seeds", "naive races", "first-part races", "partitions", "first", "Thm4.2 ok%")
	for _, w := range racyWorkloads() {
		gt, err := scp.SampleSC(w.Prog, w.InitMemory, cfg.GroundTruthSeeds)
		if err != nil {
			return err
		}
		var naive, firstRaces, parts, firsts []float64
		checked, ok42 := 0, 0
		racySeeds := 0
		for seed := int64(0); seed < int64(cfg.Seeds)*3; seed++ {
			r, a, err := runAndAnalyze(w, sim.Config{Model: memmodel.WO, Seed: seed, RetireProb: 0.15})
			if err != nil {
				return err
			}
			if a.RaceFree() {
				continue
			}
			racySeeds++
			naiveCount := 0
			for ri := range a.Races {
				naiveCount += len(a.LowerLevel(a.Races[ri]))
			}
			fpCount := 0
			for _, pi := range a.FirstPartitions {
				for _, ri := range a.Partitions[pi].Races {
					fpCount += len(a.LowerLevel(a.Races[ri]))
				}
			}
			naive = append(naive, float64(naiveCount))
			firstRaces = append(firstRaces, float64(fpCount))
			parts = append(parts, float64(len(a.Partitions)))
			firsts = append(firsts, float64(len(a.FirstPartitions)))
			rep := scp.CheckCondition34(a, r.Exec, gt, 1<<18)
			for _, has := range rep.FirstPartitionHasSCRace {
				checked++
				if has {
					ok42++
				}
			}
		}
		tbl.AddRow(w.Name, racySeeds,
			stats.Summarize(naive).Mean, stats.Summarize(firstRaces).Mean,
			stats.Summarize(parts).Mean, stats.Summarize(firsts).Mean,
			100*stats.Ratio(float64(ok42), float64(checked)))
	}
	return tbl.Render(out)
}

// Table5 quantifies §5's on-the-fly comparison: bounded access histories
// trade memory for missed races; unbounded histories match post-mortem
// detection at higher run-time cost.
func Table5(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T5. On-the-fly detection vs history bound (mean over racy seeds)",
		"workload", "history", "otf races", "post-mortem races", "missed %", "comparisons")
	for _, w := range racyWorkloads() {
		for _, limit := range []int{0, 4, 2, 1} {
			var otfRaces, pmRaces, missedPct, comparisons []float64
			for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
				r, a, err := runAndAnalyze(w, sim.Config{Model: memmodel.WO, Seed: seed, RetireProb: 0.15})
				if err != nil {
					return err
				}
				pm := map[core.LowerLevelRace]bool{}
				for ri := range a.Races {
					for _, ll := range a.LowerLevel(a.Races[ri]) {
						pm[ll.Canonical()] = true
					}
				}
				if len(pm) == 0 {
					continue
				}
				res := onthefly.Detect(r.Exec, onthefly.Options{HistoryLimit: limit})
				missed := 0
				for ll := range pm {
					if !res.Races[ll] {
						missed++
					}
				}
				otfRaces = append(otfRaces, float64(res.RaceCount()))
				pmRaces = append(pmRaces, float64(len(pm)))
				missedPct = append(missedPct, 100*float64(missed)/float64(len(pm)))
				comparisons = append(comparisons, float64(res.Comparisons))
			}
			hist := "unbounded"
			if limit > 0 {
				hist = fmt.Sprintf("%d", limit)
			}
			tbl.AddRow(w.Name, hist,
				stats.Summarize(otfRaces).Mean, stats.Summarize(pmRaces).Mean,
				stats.Summarize(missedPct).Mean, stats.Summarize(comparisons).Mean)
		}
	}
	return tbl.Render(out)
}

// Table7 evaluates the paper's §6 future work, implemented in
// internal/onthefly: locating the FIRST races on the fly via taint
// epochs. Columns compare the online classification with the post-mortem
// first partitions (the reference) at operation granularity.
func Table7(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T7. §6 future work: on-the-fly first-race classification vs post-mortem first partitions",
		"workload", "racy seeds", "online first", "online downstream", "pm first", "pm total", "first⊆pm-first %")
	for _, w := range racyWorkloads() {
		var onFirst, onDown, pmFirstN, pmTotalN []float64
		subset, firstTotal := 0, 0
		racySeeds := 0
		for seed := int64(0); seed < int64(cfg.Seeds)*2; seed++ {
			r, a, err := runAndAnalyze(w, sim.Config{Model: memmodel.WO, Seed: seed, RetireProb: 0.15})
			if err != nil {
				return err
			}
			if a.RaceFree() {
				continue
			}
			racySeeds++
			pmFirst := map[core.LowerLevelRace]bool{}
			pmAll := map[core.LowerLevelRace]bool{}
			for ri := range a.Races {
				for _, ll := range a.LowerLevel(a.Races[ri]) {
					pmAll[ll.Canonical()] = true
				}
			}
			for _, pi := range a.FirstPartitions {
				for _, ri := range a.Partitions[pi].Races {
					for _, ll := range a.LowerLevel(a.Races[ri]) {
						pmFirst[ll.Canonical()] = true
					}
				}
			}
			res := onthefly.DetectFirstRaces(r.Exec, onthefly.Options{})
			onFirst = append(onFirst, float64(len(res.First)))
			onDown = append(onDown, float64(len(res.Downstream)))
			pmFirstN = append(pmFirstN, float64(len(pmFirst)))
			pmTotalN = append(pmTotalN, float64(len(pmAll)))
			for race := range res.First {
				firstTotal++
				if pmFirst[race] {
					subset++
				}
			}
		}
		tbl.AddRow(w.Name, racySeeds,
			stats.Summarize(onFirst).Mean, stats.Summarize(onDown).Mean,
			stats.Summarize(pmFirstN).Mean, stats.Summarize(pmTotalN).Mean,
			100*stats.Ratio(float64(subset), float64(firstTotal)))
	}
	return tbl.Render(out)
}

// Table8 quantifies the §2.1 pairing classification: the paper's
// conservative rule (a Test&Set's write is not a release) versus the
// liberal rule that is sound on WO/DRF0-style hardware (every
// synchronization operation drains the buffer). Programs that publish
// through a Test&Set write are reported racy only under the conservative
// rule; ordinary lock usage is unaffected.
func Table8(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T8. Pairing-policy ablation: lower-level data races reported (mean per execution)",
		"workload", "conservative", "liberal", "note")
	cases := []struct {
		w    *workload.Workload
		note string
	}{
		{workload.TasPublish(3), "publishes via a Test&Set write"},
		{workload.LockedCounter(3, 4, -1), "ordinary locking: both clean"},
		{workload.LockedCounter(3, 4, 1), "missing lock: both report it"},
		{workload.Figure1a(), "no sync at all: both report it"},
	}
	for _, c := range cases {
		var consN, libN []float64
		for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
			r, err := sim.Run(c.w.Prog, sim.Config{
				Model: memmodel.WO, Seed: seed, InitMemory: c.w.InitMemory,
			})
			if err != nil {
				return err
			}
			tr := trace.FromExecution(r.Exec)
			count := func(p memmodel.PairingPolicy) (float64, error) {
				a, err := core.Analyze(tr, core.Options{Pairing: p})
				if err != nil {
					return 0, err
				}
				n := 0
				for ri := range a.Races {
					n += len(a.LowerLevel(a.Races[ri]))
				}
				return float64(n), nil
			}
			cn, err := count(memmodel.ConservativePairing)
			if err != nil {
				return err
			}
			ln, err := count(memmodel.LiberalPairing)
			if err != nil {
				return err
			}
			consN = append(consN, cn)
			libN = append(libN, ln)
		}
		tbl.AddRow(c.w.Name, stats.Summarize(consN).Mean, stats.Summarize(libN).Mean, c.note)
	}
	return tbl.Render(out)
}

// Table9 contrasts the paper's happens-before approach with the
// Eraser-style lockset discipline across many seeds: lockset flags the
// locking bug on every schedule (even those where the accesses happened
// to be ordered) but false-positives on lock-free flag synchronization,
// which happens-before handles exactly.
func Table9(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T9. Happens-before (the paper) vs lockset discipline: seeds flagged (%)",
		"workload", "hb racy %", "lockset flagged %", "note")
	cases := []struct {
		w    *workload.Workload
		note string
	}{
		{workload.LockedCounter(3, 3, -1), "clean locking: neither fires"},
		{workload.LockedCounter(3, 3, 1), "missing lock: lockset schedule-insensitive"},
		{workload.FlagHandoff(3), "flag handoff: lockset false positive"},
		{workload.Figure1a(), "no sync: both fire (lockset only when a read precedes the write)"},
	}
	for _, c := range cases {
		hb, ls := 0, 0
		for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
			r, a, err := runAndAnalyze(c.w, sim.Config{Model: memmodel.WO, Seed: seed})
			if err != nil {
				return err
			}
			if !a.RaceFree() {
				hb++
			}
			if len(lockset.Check(r.Exec).Findings) > 0 {
				ls++
			}
		}
		tbl.AddRow(c.w.Name,
			100*stats.Ratio(float64(hb), float64(cfg.Seeds)),
			100*stats.Ratio(float64(ls), float64(cfg.Seeds)),
			c.note)
	}
	return tbl.Render(out)
}

// Table6 is the Theorem 3.5 ablation: on honest weak hardware
// (Condition 3.4 holds by construction) a race-free verdict certifies
// sequential consistency; on pathological hardware (value speculation)
// that guarantee fails — race-free executions stop being SC.
func Table6(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T6. Condition 3.4 ablation: race-free verdict vs actual sequential consistency",
		"workload", "hardware", "race-free %", "guarantee violations %", "undecided")
	for _, w := range raceFreeWorkloads() {
		for _, patho := range []bool{false, true} {
			raceFree, violations, undecided := 0, 0, 0
			for seed := int64(0); seed < int64(cfg.Seeds); seed++ {
				r, a, err := runAndAnalyze(w, sim.Config{
					Model: memmodel.WO, Seed: seed,
					Pathological: patho, PathologicalProb: 0.2,
				})
				if err != nil {
					return err
				}
				if !a.RaceFree() {
					continue
				}
				raceFree++
				sc, decided := scp.VerifySC(r.Exec, 1<<19)
				if !decided {
					undecided++
					continue
				}
				if !sc {
					violations++
				}
			}
			hw := "honest"
			if patho {
				hw = "pathological"
			}
			tbl.AddRow(w.Name, hw,
				100*stats.Ratio(float64(raceFree), float64(cfg.Seeds)),
				100*stats.Ratio(float64(violations), float64(raceFree)),
				undecided)
		}
	}
	return tbl.Render(out)
}

// All runs every figure and table in order.
func All(out io.Writer, cfg Config) error {
	if err := Figure1a(out); err != nil {
		return err
	}
	if err := Figure1b(out); err != nil {
		return err
	}
	if _, err := Figure2(out); err != nil {
		return err
	}
	if err := Figure3(out); err != nil {
		return err
	}
	for i, table := range []func(io.Writer, Config) error{
		Table1, Table2, Table3, Table4, Table5, Table6, Table7, Table8, Table9, Table10,
	} {
		if err := table(out, cfg); err != nil {
			return fmt.Errorf("table %d: %w", i+1, err)
		}
		fmt.Fprintln(out)
	}
	return nil
}
