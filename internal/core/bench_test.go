package core

import (
	"math/rand"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// BenchmarkAugment analyzes the seven traces of the benchmark's
// postmortem workload at seed 1 — spin-contended random programs on 4
// CPUs with 2 locks and 30% unlocked segments, 930 to 2150 segments
// (about 30k to 70k events), simulated on WO — and reports the mean
// detect.augment (G′'s partner table, components and condensation) and
// detect.analyze times per trace, so a change to the graph layer can be
// sized without building the benchmark.
func BenchmarkAugment(b *testing.B) {
	const n, lo, hi = 7, 930, 2150
	rng := rand.New(rand.NewSource(1))
	traces := make([]*trace.Trace, n)
	for i := range traces {
		w := workload.Random(workload.RandomParams{
			CPUs: 4, Locks: 2, UnlockedFraction: 0.3,
			Segments: lo + i*(hi-lo)/(n-1),
			Seed:     rng.Int63(),
		})
		r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: rng.Int63n(1 << 30), InitMemory: w.InitMemory})
		if err != nil {
			b.Fatal(err)
		}
		traces[i] = trace.FromExecution(r.Exec)
	}
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if _, err := Analyze(tr, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	phases := reg.Snapshot().Phases
	for _, name := range []string{"detect.augment", "detect.analyze"} {
		p := phases[name]
		b.ReportMetric(float64(p.TotalNS)/float64(p.Count)/1e6, name+"_ms/trace")
	}
}
