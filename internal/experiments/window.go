package experiments

import (
	"fmt"
	"io"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/onthefly"
	"weakrace/internal/report"
	"weakrace/internal/sim"
	"weakrace/internal/stats"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// windowStudyWindows are the retirement windows the §5 bounded-buffer
// study sweeps; 0 is the exact, unbounded detector.
var windowStudyWindows = []int{64, 256, 1024, 0}

// largeWindowCorpus generates executions long enough for the windows to
// actually bite: ~500-800 events each, racy, four processors.
func largeWindowCorpus(n int) []workload.CorpusEntry {
	out := make([]workload.CorpusEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, workload.CorpusEntry{
			Workload: workload.Random(workload.RandomParams{
				Seed:             int64(1000 + i),
				CPUs:             4,
				Segments:         24 + i%6,
				OpsPerSegment:    5 + i%2,
				Locks:            2,
				UnlockedFraction: 0.3,
				SharedFraction:   0.6,
			}),
			Model: memmodel.WO,
			Seed:  int64(i),
		})
	}
	return out
}

// Table10 quantifies wrserve's memory/accuracy trade (§5's bounded
// buffer made operational): the windowed incremental detector — the
// same onthefly.Detector every wrserve stream runs, which the stream
// tests pin byte-identical to this in-process path — against the
// post-mortem oracle, across retirement windows. "missed %" counts
// oracle races absent from the windowed result; window ∞ must miss
// nothing. "pair-miss bound" is the detector's conservative count of
// comparisons the window may have cost it, and "peak live" the largest
// number of access-history entries held at once — the memory actually
// bounded.
func Table10(out io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := report.NewTable(
		"T10. Windowed detection vs post-mortem oracle (wrserve's window sweep)",
		"corpus", "window", "races", "oracle races", "missed %", "retired/trace", "pair-miss bound", "peak live")

	corpora := []struct {
		name    string
		entries []workload.CorpusEntry
	}{
		{"corpus-60", workload.Corpus(60, 1)},
		{"large-4cpu", largeWindowCorpus(12)},
	}
	for _, corpus := range corpora {
		type sample struct {
			exec   *sim.Execution
			oracle map[core.LowerLevelRace]bool
		}
		samples := make([]sample, 0, len(corpus.entries))
		for _, c := range corpus.entries {
			r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
			if err != nil {
				return err
			}
			a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
			if err != nil {
				return err
			}
			pm := map[core.LowerLevelRace]bool{}
			for ri := range a.Races {
				for _, ll := range a.LowerLevel(a.Races[ri]) {
					pm[ll.Canonical()] = true
				}
			}
			samples = append(samples, sample{r.Exec, pm})
		}

		for _, window := range windowStudyWindows {
			var races, oracle, missedPct, retired, pairMiss, peak []float64
			for _, s := range samples {
				res := onthefly.Detect(s.exec, onthefly.Options{Window: window})
				races = append(races, float64(res.RaceCount()))
				oracle = append(oracle, float64(len(s.oracle)))
				if len(s.oracle) > 0 {
					missed := 0
					for ll := range s.oracle {
						if !res.Races[ll] {
							missed++
						}
					}
					missedPct = append(missedPct, 100*float64(missed)/float64(len(s.oracle)))
				}
				retired = append(retired, float64(res.Retired))
				pairMiss = append(pairMiss, float64(res.WindowPairMisses))
				peak = append(peak, float64(res.PeakLiveAccesses))
			}
			label := "∞"
			if window > 0 {
				label = fmt.Sprintf("%d", window)
			}
			if window == 0 && stats.Summarize(missedPct).Mean != 0 {
				return fmt.Errorf("table10: unbounded window missed oracle races on %s", corpus.name)
			}
			tbl.AddRow(corpus.name, label,
				stats.Summarize(races).Mean, stats.Summarize(oracle).Mean,
				stats.Summarize(missedPct).Mean, stats.Summarize(retired).Mean,
				stats.Summarize(pairMiss).Mean, stats.Summarize(peak).Mean)
		}
	}
	return tbl.Render(out)
}
