package crosscheck

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/graph"
	"weakrace/internal/memmodel"
	"weakrace/internal/oracle"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// Tarjan collects the condensation on the same pass that finds the
// components. Its successor sets must be the ones the oracle builds edge
// by edge, under the oracle's own component numbering: over G′ (hb1 plus
// the po-minimal partner edges) of the frozen corpus and Figure 2, where
// the partition order reads them, and over hb1 of every cyclic input of
// hb1Inputs, where the clocks fold along them.
func TestCondensationVsOracle(t *testing.T) {
	gprimeInputs := append(workload.Corpus(60, 1), workload.CorpusEntry{Workload: workload.Figure2(), Model: memmodel.WO, Seed: 674})
	for i, c := range gprimeInputs {
		r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.FromExecution(r.Exec)
		a, err := core.Analyze(tr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		adj := oracle.HB1(tr, memmodel.ConservativePairing)
		for u, m := range oracle.NewGPrime(tr, memmodel.ConservativePairing).MinPartner {
			for cpu := range tr.NumCPUs {
				if v, ok := m[cpu]; ok {
					adj[u] = append(adj[u], v)
				}
			}
		}
		checkCondensation(t, fmt.Sprintf("G′ of input %d (%s, %v, seed %d)", i, c.Workload.Name, c.Model, c.Seed), a.AugSCC, adj)
	}
	cyclic := 0
	for _, in := range hb1Inputs(t) {
		for _, pairing := range []memmodel.PairingPolicy{memmodel.ConservativePairing, memmodel.LiberalPairing} {
			scc := core.HB1(in.tr, pairing).SCC(nil, nil, nil)
			if scc.NumComponents() == in.tr.NumEvents() {
				continue
			}
			cyclic++
			checkCondensation(t, fmt.Sprintf("hb1 of %s, %v", in.label, pairing), scc, oracle.HB1(in.tr, pairing))
		}
	}
	t.Logf("%d G′ graphs and %d cyclic hb1 graphs checked", len(gprimeInputs), cyclic)
	if cyclic < 100 {
		t.Fatalf("only %d cyclic hb1 graphs checked; generator drifted", cyclic)
	}
}

// checkCondensation requires scc to number the components of adj as the
// oracle's Tarjan does and to carry the oracle's condensation.
func checkCondensation(t *testing.T, label string, scc *graph.SCC, adj [][]int) {
	t.Helper()
	comp := oracle.Tarjan(adj)
	for v, c := range comp {
		if int(scc.Comp[v]) != c {
			t.Fatalf("%s: node %d in component %d, oracle %d", label, v, scc.Comp[v], c)
		}
	}
	got := make([][]int, scc.NumComponents())
	for c := range got {
		for _, d := range scc.Succ(c) {
			got[c] = append(got[c], int(d))
		}
		slices.Sort(got[c])
	}
	if want := oracle.Condensation(adj, comp); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: condensation\n%v\nwant\n%v", label, got, want)
	}
}
