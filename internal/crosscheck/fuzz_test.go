package crosscheck

import (
	"bytes"
	"math/rand"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// fuzzMaxEvents caps the traces FuzzAnalyze checks: the G′ oracle is
// quadratic to cubic in the event count.
const fuzzMaxEvents = 512

// FuzzAnalyze: for every trace the binary decoder accepts (up to
// fuzzMaxEvents events), core.Analyze must not panic, must agree with
// the test-only G′ oracle (component ids masked), must answer every
// event pair's HBReaches and every (event, CPU) HBWindow as the explicit
// closure of hb1 built from the trace does — so the fuzzer drives both
// the clock merge and its cycle fallback — and must satisfy Theorem
// 4.1: first partitions exist iff data races do.
// The seeds are the frozen 60-trace corpus and the crosscheck
// generators, including computation events that touch lock words.
func FuzzAnalyze(f *testing.F) {
	add := func(tr *trace.Trace) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, c := range workload.Corpus(60, 1) {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			f.Fatal(err)
		}
		add(trace.FromExecution(r.Exec))
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		w := randomWorkload(rng, trial%3 != 0)
		r, err := sim.Run(w.Prog, sim.Config{Model: weakModel(rng), Seed: rng.Int63n(1000), InitMemory: w.InitMemory})
		if err != nil {
			f.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		add(tr)
		add(mixSyncLocations(rng, tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || tr.NumEvents() > fuzzMaxEvents {
			return
		}
		a := checkAgainstGPrimeOracle(t, "fuzzed trace", tr, core.Options{})
		checkHB1AgainstClosure(t, "fuzzed trace", a)
		if (len(a.FirstPartitions) > 0) != (len(a.Races) > 0) {
			t.Fatalf("Theorem 4.1 violated: %d data races, %d first partitions",
				len(a.Races), len(a.FirstPartitions))
		}
	})
}
