package core_test

import (
	"runtime"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// spinTrace simulates 4 CPUs contending for one lock on WO, with
// critical sections of the given length: waiters spin for as long as the
// holder runs, so synchronization races grow quadratically in it while
// events grow linearly.
func spinTrace(t *testing.T, critical int) *trace.Trace {
	t.Helper()
	w := workload.Random(workload.RandomParams{
		Seed: 9, CPUs: 4, Locks: 1, UnlockedFraction: 0.3, Segments: 48, OpsPerSegment: critical,
	})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 3, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	return trace.FromExecution(r.Exec)
}

// allocatedBytes analyzes tr twice through one arena and returns the
// second analysis with the bytes it allocated: the steady state of a
// campaign, where the arena's scratch and the slabs the Analysis keeps
// (clocks, components, races) are already grown, and the per-analysis
// allocation is what is left of the result — partitions, the
// condensation, a few headers.
func allocatedBytes(t *testing.T, tr *trace.Trace) (*core.Analysis, uint64) {
	t.Helper()
	opts := core.Options{Arena: core.NewArena()}
	if _, err := core.Analyze(tr, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := core.Analyze(tr, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return a, after.TotalAlloc - before.TotalAlloc
}

// TestAnalyzeOutputSensitive pins that the analysis grows with events
// plus data races, not with synchronization races: between a short and a
// long critical section of a spin-contended trace the sync-race count
// grows at least 4× faster than events + data races, while the bytes
// Analyze allocates in the steady state grow no faster than events +
// data races. The bytes get 25% of headroom: slice growth steps and the
// G′ component count move the footprint by that much between two traces
// of the same kind. Storing the sync races would move it by the
// sync-race growth, 5× and more here. With the arena's slabs reused, the
// steady state is 3.7 KB → 8.8 KB (2.4×, work 4.2×).
func TestAnalyzeOutputSensitive(t *testing.T) {
	small, big := spinTrace(t, 3), spinTrace(t, 24)
	a1, b1 := allocatedBytes(t, small)
	a2, b2 := allocatedBytes(t, big)
	work := func(a *core.Analysis) float64 { return float64(a.NumEvents + len(a.Races)) }
	syncGrowth := float64(a2.SyncRaces) / float64(a1.SyncRaces)
	workGrowth := work(a2) / work(a1)
	byteGrowth := float64(b2) / float64(b1)
	t.Logf("events %d→%d, data races %d→%d, sync races %d→%d (%.1f×), bytes %d→%d (%.2f×, work %.2f×)",
		a1.NumEvents, a2.NumEvents, len(a1.Races), len(a2.Races), a1.SyncRaces, a2.SyncRaces,
		syncGrowth, b1, b2, byteGrowth, workGrowth)
	if syncGrowth < 4*workGrowth {
		t.Fatalf("sync races grew %.1f×, want ≥ 4× the work's %.2f× for the test to mean anything", syncGrowth, workGrowth)
	}
	if byteGrowth > 1.25*workGrowth {
		t.Fatalf("allocated bytes grew %.2f×, faster than events + data races (%.2f×)", byteGrowth, workGrowth)
	}
}
