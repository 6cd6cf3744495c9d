package provenance

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// analyze runs a workload on the weak model with a fixed seed and
// explains every data race.
func analyze(t *testing.T, w *workload.Workload, model memmodel.Model, seed int64) (*core.Analysis, []*Witness) {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewExplainer(a).All()
	if err != nil {
		t.Fatal(err)
	}
	return a, ws
}

// checkGolden compares the witnesses' JSON against a pinned file,
// rewriting it under -update.
func checkGolden(t *testing.T, name string, ws []*Witness) {
	t.Helper()
	got, err := json.MarshalIndent(ws, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/provenance -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("witnesses diverge from %s:\ngot:\n%s\nwant:\n%s\n(run go test ./internal/provenance -update if the change is intended)", path, got, want)
	}
}

// Figure 2 of the paper on WO with the seed that reproduces the stale
// dequeue: the witnesses for the queue races are pinned. (The crosscheck
// harness verifies every certificate against an explicit hb1 closure.)
func TestWitnessGoldenFigure2(t *testing.T) {
	w := workload.Figure2()
	a, ws := analyze(t, w, memmodel.WO, 674)
	if len(ws) == 0 {
		t.Fatal("figure-2 seed 674 found no data races; the reproduction seed regressed")
	}
	for _, wit := range ws {
		checkCertificateShape(t, a, wit)
	}
	checkGolden(t, "figure2_wo_674.json", ws)
}

// RaceChain(4) has four racing stages but one first partition; each
// non-first witness must carry an affected-by chain that starts at a
// first partition and walks immediate precedence edges to its own.
func TestWitnessGoldenRaceChain(t *testing.T) {
	w := workload.RaceChain(4)
	a, ws := analyze(t, w, memmodel.WO, 1)
	if len(ws) == 0 {
		t.Fatal("race-chain found no data races")
	}
	first, chained := 0, 0
	for _, wit := range ws {
		checkCertificateShape(t, a, wit)
		if wit.First {
			first++
			if len(wit.Chain) != 0 {
				t.Errorf("race %d: first-partition witness has chain %v", wit.Race, wit.Chain)
			}
			continue
		}
		chained++
		if len(wit.Chain) < 2 {
			t.Fatalf("race %d: non-first witness chain %v too short", wit.Race, wit.Chain)
		}
		if !a.Partitions[wit.Chain[0]].First {
			t.Errorf("race %d: chain %v does not start at a first partition", wit.Race, wit.Chain)
		}
		if wit.Chain[len(wit.Chain)-1] != wit.Partition {
			t.Errorf("race %d: chain %v does not end at partition %d", wit.Race, wit.Chain, wit.Partition)
		}
		for i := 0; i+1 < len(wit.Chain); i++ {
			if !a.PartitionPrecedes(wit.Chain[i], wit.Chain[i+1]) {
				t.Errorf("race %d: chain hop %d→%d is not a precedence edge", wit.Race, wit.Chain[i], wit.Chain[i+1])
			}
		}
	}
	if first == 0 || chained == 0 {
		t.Fatalf("race-chain should yield both first (%d) and chained (%d) witnesses", first, chained)
	}
	checkGolden(t, "racechain4_wo_1.json", ws)
}

// checkCertificateShape verifies the invariants every certificate must
// satisfy by construction: the partner index lies strictly inside each
// bracket, and the refs match the bracket indices. (The crosscheck
// harness verifies the brackets against an explicit transitive closure.)
func checkCertificateShape(t *testing.T, a *core.Analysis, w *Witness) {
	t.Helper()
	for side, b := range map[string]Boundary{"a_on_b_cpu": w.Certificate.A, "b_on_a_cpu": w.Certificate.B} {
		from, to := a.Trace.Stream(b.CPU)
		n := to - from
		if b.LastPred < -1 || b.LastPred >= n || b.FirstSucc < 0 || b.FirstSucc > n {
			t.Errorf("race %d %s: bracket (%d, %d) out of range for stream of %d", w.Race, side, b.LastPred, b.FirstSucc, n)
		}
		if !(b.LastPred < b.Partner && b.Partner < b.FirstSucc) {
			t.Errorf("race %d %s: partner %d not strictly inside bracket (%d, %d) — pair would be hb1-ordered",
				w.Race, side, b.Partner, b.LastPred, b.FirstSucc)
		}
		if (b.LastPred >= 0) != (b.PredRef != "-") || (b.FirstSucc < n) != (b.SuccRef != "-") {
			t.Errorf("race %d %s: refs (%q, %q) inconsistent with bracket (%d, %d)", w.Race, side, b.PredRef, b.SuccRef, b.LastPred, b.FirstSucc)
		}
	}
	if w.Certificate.A.CPU != w.B.CPU || w.Certificate.B.CPU != w.A.CPU {
		t.Errorf("race %d: certificate CPUs (%d, %d) do not match sides (%d, %d)",
			w.Race, w.Certificate.A.CPU, w.Certificate.B.CPU, w.B.CPU, w.A.CPU)
	}
	if w.Certificate.A.Partner != w.B.Index || w.Certificate.B.Partner != w.A.Index {
		t.Errorf("race %d: certificate partners do not match side indices", w.Race)
	}
}

// Explain rejects out-of-range indices. Synchronization races are never
// stored, so every in-range index is a data race with a witness.
func TestExplainErrors(t *testing.T) {
	w := workload.Figure2()
	a, _ := analyze(t, w, memmodel.WO, 674)
	e := NewExplainer(a)
	if _, err := e.Explain(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := e.Explain(len(a.Races)); err == nil {
		t.Error("out-of-range index accepted")
	}
	for ri := range a.Races {
		if _, err := e.Explain(ri); err != nil {
			t.Errorf("data race %d: %v", ri, err)
		}
	}
}

// The immediate-successor DAG must be the transitive reduction of the
// partition order: every edge a real precedence, no edge implied by a
// two-hop path, and jointly reconstructing the full order.
func TestImmediateSuccessorsIsTransitiveReduction(t *testing.T) {
	a, _ := analyze(t, workload.RaceChain(4), memmodel.WO, 1)
	e := NewExplainer(a)
	succ := e.ImmediateSuccessors()
	n := len(a.Partitions)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	var dfs func(root, cur int)
	dfs = func(root, cur int) {
		for _, nxt := range succ[cur] {
			if !reach[root][nxt] {
				reach[root][nxt] = true
				dfs(root, nxt)
			}
		}
	}
	for i := 0; i < n; i++ {
		dfs(i, i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if reach[i][j] != a.PartitionPrecedes(i, j) {
				t.Errorf("immediate edges reconstruct %d⇒%d as %v, PartitionPrecedes says %v",
					i, j, reach[i][j], a.PartitionPrecedes(i, j))
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range succ[i] {
			for k := 0; k < n; k++ {
				if k != i && k != j && a.PartitionPrecedes(i, k) && a.PartitionPrecedes(k, j) {
					t.Errorf("edge %d→%d is not immediate: %d lies between", i, j, k)
				}
			}
		}
	}
}
