package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestRunIntoMatchesRun: one arena reused across runs yields Results
// deep-equal to sim.Run's, and their traces encode to the same bytes.
// The runs are LockedCounter seeds 0–63 on WO and TSO, then a wider
// workload.Random program (more CPUs and locations, so the arena's slabs
// regrow), then the counter again (so they shrink).
func TestRunIntoMatchesRun(t *testing.T) {
	ar := sim.NewArena()
	check := func(name string, w *workload.Workload, model memmodel.Model, seed int64) {
		t.Helper()
		cfg := sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory}
		want, err := sim.Run(w.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		got, err := sim.RunInto(w.Prog, cfg, ar)
		if err != nil {
			t.Fatalf("%s: RunInto: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunInto's result differs from Run's", name)
		}
		var gotBytes, wantBytes bytes.Buffer
		if err := trace.Encode(&gotBytes, trace.FromExecution(got.Exec)); err != nil {
			t.Fatal(err)
		}
		if err := trace.Encode(&wantBytes, trace.FromExecution(want.Exec)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%s: RunInto's trace encodes differently from Run's", name)
		}
	}
	counter := workload.LockedCounter(4, 6, 1)
	for _, model := range []memmodel.Model{memmodel.WO, memmodel.TSO} {
		for seed := int64(0); seed < 64; seed++ {
			check(fmt.Sprintf("counter on %v, seed %d", model, seed), counter, model, seed)
		}
	}
	random := workload.Random(workload.RandomParams{
		CPUs: 6, SharedLocs: 12, Locks: 2, UnlockedFraction: 0.3, Segments: 20, Seed: 7,
	})
	for seed := int64(0); seed < 8; seed++ {
		check(fmt.Sprintf("random on WO, seed %d", seed), random, memmodel.WO, seed)
	}
	check("counter on WO after random", counter, memmodel.WO, 5)
}
