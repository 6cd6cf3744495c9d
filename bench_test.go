// Benchmark harness: one benchmark family per timed experiment table
// (T1–T7 of DESIGN.md §4; T8/T9 are pure accuracy comparisons printed by
// cmd/experiments). Each family measures the code path the corresponding
// table quantifies and reports the table's headline number as a custom
// metric, so `go test -bench=. -benchmem` regenerates every table's
// series. The cmd/experiments binary prints the full tables.
package weakrace_test

import (
	"fmt"
	"io"
	"testing"

	"weakrace"
)

// T1 — weak-model performance: simulate the write-burst workload on every
// model; the cycles/op metric is the table's series (SC highest,
// WO/DRF0 lower, RCsc/DRF1 lowest).
func BenchmarkT1ModelThroughput(b *testing.B) {
	w := weakrace.WriteBurst(4, 12, 4)
	for _, model := range weakrace.AllModels {
		b.Run(model.String(), func(b *testing.B) {
			var cycles, ops int64
			for i := 0; i < b.N; i++ {
				res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
					Model: model, Seed: int64(i), RetireProb: 0.5,
					InitMemory: w.InitMemory,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Makespan()
				ops += int64(res.Exec.NumOps())
			}
			b.ReportMetric(float64(cycles)/float64(ops), "cycles/op")
		})
	}
}

// T2 — tracing overhead: simulation alone vs simulation plus trace
// construction and encoding.
func BenchmarkT2TracingOverhead(b *testing.B) {
	w := weakrace.LockedCounter(4, 8, -1)
	cfg := weakrace.SimConfig{Model: weakrace.WO, Seed: 1}
	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := weakrace.Simulate(w.Prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulate+trace+encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := weakrace.Simulate(w.Prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr := weakrace.TraceExecution(res.Exec)
			if err := weakrace.EncodeTrace(io.Discard, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// T3 — post-mortem analysis cost as the trace grows.
func BenchmarkT3PostMortemScaling(b *testing.B) {
	for _, segments := range []int{4, 8, 16, 32, 64} {
		w := weakrace.RandomWorkload(weakrace.RandomParams{
			Seed: 5, CPUs: 4, Segments: segments, UnlockedFraction: 0.3,
		})
		res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		tr := weakrace.TraceExecution(res.Exec)
		b.Run(fmt.Sprintf("segments-%d", segments), func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				a, err := weakrace.Detect(tr, weakrace.DetectOptions{})
				if err != nil {
					b.Fatal(err)
				}
				events = a.NumEvents
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// T3 (large) — the 10k–40k-event regime: analysis cost at segments
// 256/512/1024.
func BenchmarkT3PostMortemLarge(b *testing.B) {
	traces := map[int]*weakrace.Trace{}
	for _, segments := range []int{256, 512, 1024} {
		w := weakrace.RandomWorkload(weakrace.RandomParams{
			Seed: 5, CPUs: 4, Segments: segments, UnlockedFraction: 0.3,
		})
		res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		traces[segments] = weakrace.TraceExecution(res.Exec)
	}
	for _, segments := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("segments-%d", segments), func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				a, err := weakrace.Detect(traces[segments], weakrace.DetectOptions{})
				if err != nil {
					b.Fatal(err)
				}
				events = a.NumEvents
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// T4 — accuracy: the full first-partition pipeline on racy workloads; the
// metrics contrast naive all-races reporting with first-partition
// reporting.
func BenchmarkT4AccuracyFirstPartitions(b *testing.B) {
	for _, w := range []*weakrace.Workload{
		weakrace.RaceChain(4),
		weakrace.LockedCounter(3, 4, 1),
	} {
		b.Run(w.Prog.Name, func(b *testing.B) {
			var naive, first float64
			n := 0
			for i := 0; i < b.N; i++ {
				res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
					Model: weakrace.WO, Seed: int64(i), InitMemory: w.InitMemory,
				})
				if err != nil {
					b.Fatal(err)
				}
				a, err := weakrace.Detect(weakrace.TraceExecution(res.Exec), weakrace.DetectOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if a.RaceFree() {
					continue
				}
				n++
				naive += float64(len(a.Races))
				for _, pi := range a.FirstPartitions {
					first += float64(len(a.Partitions[pi].Races))
				}
			}
			if n > 0 {
				b.ReportMetric(naive/float64(n), "naive-races")
				b.ReportMetric(first/float64(n), "first-part-races")
			}
		})
	}
}

// T5 — on-the-fly detection across history bounds; the races metric drops
// as the bound shrinks while comparisons (run-time cost) also drop.
func BenchmarkT5OnTheFly(b *testing.B) {
	w := weakrace.LockedCounter(3, 4, 1)
	res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, limit := range []int{0, 4, 2, 1} {
		name := "unbounded"
		if limit > 0 {
			name = fmt.Sprintf("history-%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			var races, comparisons int
			for i := 0; i < b.N; i++ {
				r := weakrace.DetectOnTheFly(res.Exec, weakrace.OnTheFlyOptions{HistoryLimit: limit})
				races = r.RaceCount()
				comparisons = r.Comparisons
			}
			b.ReportMetric(float64(races), "races")
			b.ReportMetric(float64(comparisons), "comparisons")
		})
	}
}

// T6 — the Condition 3.4 machinery: the exact SC verifier on honest and
// pathological executions of a race-free workload.
func BenchmarkT6VerifySC(b *testing.B) {
	w := weakrace.LockedCounter(3, 3, -1)
	for _, patho := range []bool{false, true} {
		name := "honest"
		if patho {
			name = "pathological"
		}
		res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
			Model: weakrace.WO, Seed: 3,
			Pathological: patho, PathologicalProb: 0.2,
			InitMemory: w.InitMemory,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			sc := 0
			for i := 0; i < b.N; i++ {
				ok, decided := weakrace.VerifySC(res.Exec, 1<<19)
				if !decided {
					b.Fatal("verifier budget exhausted")
				}
				if ok {
					sc = 1
				}
			}
			b.ReportMetric(float64(sc), "is-sc")
		})
	}
}

// T7 — the §6 future-work extension: online first-race classification.
func BenchmarkT7FirstRacesOnline(b *testing.B) {
	w := weakrace.RaceChain(4)
	res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{Model: weakrace.WO, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var first, downstream int
	for i := 0; i < b.N; i++ {
		r := weakrace.DetectFirstRacesOnTheFly(res.Exec, weakrace.OnTheFlyOptions{})
		first, downstream = len(r.First), len(r.Downstream)
	}
	b.ReportMetric(float64(first), "first-races")
	b.ReportMetric(float64(downstream), "downstream-races")
}

// End-to-end pipeline benchmark: simulate + trace + detect + partition.
func BenchmarkFullPipeline(b *testing.B) {
	w := weakrace.Figure2()
	for i := 0; i < b.N; i++ {
		res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
			Model: weakrace.WO, Seed: int64(i), InitMemory: w.InitMemory,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := weakrace.Detect(weakrace.TraceExecution(res.Exec), weakrace.DetectOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
