package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/oracle"
	"weakrace/internal/provenance"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// TestCertificatesAgainstExplicitClosure verifies the witness engine's
// absence certificates against a fully materialized transitive closure
// of the hb1 graph. The engine reads each boundary off the hb1
// timestamps (core.Analysis.HBWindow); here every boundary is recomputed
// by linear scan over internal/oracle's closure, the prefix/suffix
// monotonicity the windows rely on is checked event by event, and the racing partner is confirmed to
// lie strictly inside the bracket (i.e. the certificate really proves
// hb1-unorderedness).
//
// Besides 40 random workloads, it covers the two workloads whose
// witnesses the provenance package pins as golden files: Figure 2 on WO
// at seed 674 and RaceChain(4) on WO at seed 1.
func TestCertificatesAgainstExplicitClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	witnessed := 0
	for trial := 0; trial < 42; trial++ {
		var w *workload.Workload
		var model memmodel.Model
		var seed int64
		switch trial {
		case 40:
			w, model, seed = workload.Figure2(), memmodel.WO, 674
		case 41:
			w, model, seed = workload.RaceChain(4), memmodel.WO, 1
		default:
			w, model, seed = randomWorkload(rng, true), weakModel(rng), rng.Int63n(1000)
		}
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.RaceFree() {
			continue
		}
		closure := oracle.NewClosure(oracle.HB1(a.Trace, a.Options.Pairing))
		ws, err := provenance.NewExplainer(a).All()
		if err != nil {
			t.Fatal(err)
		}
		for _, wit := range ws {
			witnessed++
			checkBoundary(t, a, closure, wit.A.Event, wit.Certificate.A, wit.B)
			checkBoundary(t, a, closure, wit.B.Event, wit.Certificate.B, wit.A)
		}
	}
	if witnessed < 20 {
		t.Fatalf("only %d witnesses checked; generator drifted", witnessed)
	}
}

// checkBoundary recomputes the bracket that event x cuts out of the
// partner's processor stream by brute force over the explicit closure
// and compares it with the certificate's boundary.
func checkBoundary(t *testing.T, a *core.Analysis, closure *oracle.Closure, x int, b provenance.Boundary, partner provenance.Side) {
	t.Helper()
	if b.CPU != partner.CPU || b.Partner != partner.Index {
		t.Fatalf("boundary names cpu %d partner %d; racing side is P%d index %d",
			b.CPU, b.Partner, partner.CPU+1, partner.Index)
	}
	stream := a.Trace.PerCPU[b.CPU]
	at := func(j int) int { return int(a.ID(trace.EventRef{CPU: b.CPU, Index: j})) }

	// Brute-force bracket over the explicit closure, plus the
	// monotonicity check: reaching-x must be a prefix of the stream and
	// reached-by-x a suffix, or a two-bound window cannot describe them.
	lastPred, firstSucc := -1, len(stream)
	for j := range stream {
		if closure.Reaches(at(j), x) {
			if j != lastPred+1 {
				t.Fatalf("events reaching %d on P%d are not a prefix: gap before index %d", x, b.CPU+1, j)
			}
			lastPred = j
		}
	}
	for j := len(stream) - 1; j >= 0; j-- {
		if closure.Reaches(x, at(j)) {
			if j != firstSucc-1 {
				t.Fatalf("events reached by %d on P%d are not a suffix: gap after index %d", x, b.CPU+1, j)
			}
			firstSucc = j
		}
	}
	if b.LastPred != lastPred || b.FirstSucc != firstSucc {
		t.Fatalf("certificate bracket (%d, %d) for event %d on P%d; explicit closure says (%d, %d)",
			b.LastPred, b.FirstSucc, x, b.CPU+1, lastPred, firstSucc)
	}
	// The bracket must actually prove the race: the partner strictly
	// inside means neither direction of hb1 orders the pair.
	if !(b.Partner > b.LastPred && b.Partner < b.FirstSucc) {
		t.Fatalf("partner index %d not strictly inside bracket (%d, %d): certificate proves nothing",
			b.Partner, b.LastPred, b.FirstSucc)
	}
	if closure.Ordered(x, at(b.Partner)) {
		t.Fatalf("event %d and partner %d are hb1-ordered; race report is wrong", x, at(b.Partner))
	}
}

// TestWitnessesImplicitVsExplicitAug: the witness engine reads the
// partition order off core's implicit G′; every witness must agree with
// the explicit-G′ oracle — the race's partition and first flag, and an
// affected-by chain that starts at a first partition, ends at the
// race's own, and steps only along immediate edges of the oracle's
// partition order. Besides 30 random workloads it covers the two
// golden-file workloads of the provenance package.
func TestWitnessesImplicitVsExplicitAug(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	compared, chains := 0, 0
	for trial := 0; trial < 32; trial++ {
		var w *workload.Workload
		var model memmodel.Model
		var seed int64
		switch trial {
		case 30:
			w, model, seed = workload.Figure2(), memmodel.WO, 674
		case 31:
			w, model, seed = workload.RaceChain(4), memmodel.WO, 1
		default:
			w, model, seed = randomWorkload(rng, true), weakModel(rng), rng.Int63n(1000)
		}
		r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		a, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.NewGPrime(tr, memmodel.ConservativePairing)
		ws, err := provenance.NewExplainer(a).All()
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != len(o.Races) {
			t.Fatalf("trial %d: %d witnesses, oracle has %d data races", trial, len(ws), len(o.Races))
		}
		precedes := func(i, j int) bool { return i != j && o.Precedes(i, j) }
		for _, wit := range ws {
			ctx := fmt.Sprintf("trial %d (%s, %v, seed %d) race %d", trial, w.Name, model, seed, wit.Race)
			rc := o.Races[wit.Race]
			if wit.A.Event != rc.A || wit.B.Event != rc.B || !wit.Data {
				t.Fatalf("%s: witness sides %d,%d data=%v, oracle race %d,%d", ctx, wit.A.Event, wit.B.Event, wit.Data, rc.A, rc.B)
			}
			p := o.Parts[wit.Partition]
			if !slices.Contains(p.Races, wit.Race) || wit.First != p.First {
				t.Fatalf("%s: witness partition %d first=%v; oracle partition %+v", ctx, wit.Partition, wit.First, p)
			}
			if wit.First {
				if len(wit.Chain) != 0 {
					t.Fatalf("%s: first-partition witness has chain %v", ctx, wit.Chain)
				}
				continue
			}
			chains++
			c := wit.Chain
			if len(c) < 2 || !o.Parts[c[0]].First || c[len(c)-1] != wit.Partition {
				t.Fatalf("%s: chain %v does not run from a first partition to %d", ctx, c, wit.Partition)
			}
			for k := 0; k+1 < len(c); k++ {
				if !precedes(c[k], c[k+1]) {
					t.Fatalf("%s: chain hop %d→%d is not in the oracle's partition order", ctx, c[k], c[k+1])
				}
				for m := range o.Parts {
					if precedes(c[k], m) && precedes(m, c[k+1]) {
						t.Fatalf("%s: chain hop %d→%d skips partition %d", ctx, c[k], c[k+1], m)
					}
				}
			}
		}
		compared += len(ws)
	}
	if compared < 20 || chains == 0 {
		t.Fatalf("only %d witnesses (%d chains) compared; generator drifted", compared, chains)
	}
}
