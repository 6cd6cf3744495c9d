package report

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// referenceRenderAnalysis is the fmt-based race report renderer that
// RenderAnalysis replaced, kept as the oracle for its output. It formats
// event references, location sets and lower-level races with its own
// fmt calls, so the AppendTo formatters are checked as well.
func referenceRenderAnalysis(w io.Writer, a *core.Analysis) error {
	t := a.Trace
	if _, err := fmt.Fprintf(w, "race report for %q (model %s, seed %d): %d events, %d races (%d data), %d partitions (%d first)\n",
		t.ProgramName, t.Model, t.Seed, a.NumEvents, len(a.Races)+a.SyncRaces, len(a.Races),
		len(a.Partitions), len(a.FirstPartitions)); err != nil {
		return err
	}
	if a.RaceFree() {
		_, err := fmt.Fprintf(w, "NO DATA RACES: by Condition 3.4(1) this execution was sequentially consistent.\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "report the first partitions; by Theorem 4.2 each contains a race that\noccurs in a sequentially consistent execution.\n"); err != nil {
		return err
	}
	render := func(pi int) error {
		p := a.Partitions[pi]
		tag := "non-first"
		if p.First {
			tag = "FIRST"
		}
		parts := make([]string, len(p.Events))
		for i, id := range p.Events {
			parts[i] = refString(a.Ref(id))
		}
		if _, err := fmt.Fprintf(w, "partition %d [%s]: %d race(s) over events %s\n",
			pi, tag, len(p.Races), "{"+strings.Join(parts, ", ")+"}"); err != nil {
			return err
		}
		for _, ri := range p.Races {
			r := a.Races[ri]
			if _, err := fmt.Fprintf(w, "  race ⟨%s, %s⟩ on locations %s\n",
				refString(a.Ref(r.A)), refString(a.Ref(r.B)), setString(r.Locs)); err != nil {
				return err
			}
			for _, ll := range a.LowerLevel(r) {
				if _, err := fmt.Fprintf(w, "    %s\n", lowerLevelString(ll)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, pi := range a.FirstPartitions {
		if err := render(pi); err != nil {
			return err
		}
	}
	for pi := range a.Partitions {
		if !a.Partitions[pi].First {
			if err := render(pi); err != nil {
				return err
			}
		}
	}
	printedHeader := false
	for i := range a.Partitions {
		for j := range a.Partitions {
			if i == j || !a.PartitionPrecedes(i, j) {
				continue
			}
			if !printedHeader {
				if _, err := fmt.Fprintf(w, "partition order (P):\n"); err != nil {
					return err
				}
				printedHeader = true
			}
			if _, err := fmt.Fprintf(w, "  partition %d precedes partition %d\n", i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

func refString(r trace.EventRef) string {
	if !r.Valid() {
		return "-"
	}
	return fmt.Sprintf("P%d.%d", r.CPU+1, r.Index)
}

func setString(s trace.Locs) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	sb.WriteByte('}')
	return sb.String()
}

func staticOpString(s sim.StaticOp) string {
	return fmt.Sprintf("P%d@%d[%d]", s.CPU+1, s.PC, s.Loc)
}

func lowerLevelString(l core.LowerLevelRace) string {
	mode := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("⟨%s:%s, %s:%s⟩@%d",
		mode(l.XWrites), staticOpString(l.X), mode(l.YWrites), staticOpString(l.Y), l.Loc)
}

// assertMatchesReference renders a with both renderers and requires
// byte-identical output; it also checks the String wrappers against the
// reference formatting for every race in a.
func assertMatchesReference(t *testing.T, name string, a *core.Analysis) {
	t.Helper()
	var got, want bytes.Buffer
	if err := RenderAnalysis(&got, a); err != nil {
		t.Fatal(err)
	}
	if err := referenceRenderAnalysis(&want, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: RenderAnalysis diverges from the reference renderer:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want.Bytes())
	}
	for _, r := range a.Races {
		if g, w := r.Locs.String(), setString(r.Locs); g != w {
			t.Fatalf("%s: Set.String %q, reference %q", name, g, w)
		}
		if g, w := a.Ref(r.A).String(), refString(a.Ref(r.A)); g != w {
			t.Fatalf("%s: EventRef.String %q, reference %q", name, g, w)
		}
		for _, ll := range a.LowerLevel(r) {
			if g, w := ll.String(), lowerLevelString(ll); g != w {
				t.Fatalf("%s: LowerLevelRace.String %q, reference %q", name, g, w)
			}
			if g, w := ll.X.String(), staticOpString(ll.X); g != w {
				t.Fatalf("%s: StaticOp.String %q, reference %q", name, g, w)
			}
		}
	}
}

func analyzeRun(t *testing.T, w *workload.Workload, model memmodel.Model, seed int64) *core.Analysis {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: model, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The report on the frozen 60-trace corpus (workload.Corpus(60, 1)) is
// byte-identical to the reference renderer's.
func TestRenderAnalysisMatchesReferenceOnCorpus(t *testing.T) {
	for trial, c := range workload.Corpus(60, 1) {
		a := analyzeRun(t, c.Workload, c.Model, c.Seed)
		assertMatchesReference(t, fmt.Sprintf("corpus trial %d (%s)", trial, c.Workload.Name), a)
	}
}

// The paper's figures, including the Figure 2b anomaly behind the
// explanation golden (first and non-first partitions, a partition
// order), a race-free run, and a program name that needs quoting.
func TestRenderAnalysisMatchesReferenceOnFigures(t *testing.T) {
	r, err := workload.RunFig2Stale(memmodel.WO, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, "figure 2b anomaly", stale)
	var buf bytes.Buffer
	if err := RenderAnalysis(&buf, stale); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[FIRST]", "[non-first]", "partition order (P):"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("figure 2b report lacks %q, so it no longer covers that line:\n%s", want, buf.String())
		}
	}
	assertMatchesReference(t, "figure 1a", analyzeRun(t, workload.Figure1a(), memmodel.WO, 1))
	assertMatchesReference(t, "figure 1b", analyzeRun(t, workload.Figure1b(), memmodel.WO, 1))
	assertMatchesReference(t, "figure 2", analyzeRun(t, workload.Figure2(), memmodel.WO, 674))
	odd := analyzeRun(t, workload.Figure1a(), memmodel.WO, 1)
	odd.Trace.ProgramName = "quote\" tab\t bad\xff utf8 ⟨⟩"
	assertMatchesReference(t, "program name needing quoting", odd)
}

// Contended random programs (4 CPUs, 2 locks, 30% unlocked segments)
// with over a thousand data races each.
func TestRenderAnalysisMatchesReferenceOnContendedTraces(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		w := workload.Random(workload.RandomParams{
			CPUs: 4, Locks: 2, UnlockedFraction: 0.3, Segments: 500, Seed: seed,
		})
		a := analyzeRun(t, w, memmodel.WO, seed)
		if len(a.Races) < 1000 {
			t.Fatalf("seed %d: %d data races, want at least 1000", seed, len(a.Races))
		}
		assertMatchesReference(t, fmt.Sprintf("contended seed %d", seed), a)
	}
}
