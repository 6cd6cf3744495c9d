package report

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

func analyzeWorkload(t *testing.T, w *workload.Workload, seed int64) *core.Analysis {
	t.Helper()
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: seed, InitMemory: w.InitMemory})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRenderAnalysisRacy(t *testing.T) {
	a := analyzeWorkload(t, workload.Figure1a(), 1)
	var buf bytes.Buffer
	if err := RenderAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"race report", "FIRST", "race ⟨", "Theorem 4.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAnalysisClean(t *testing.T) {
	a := analyzeWorkload(t, workload.Figure1b(), 1)
	var buf bytes.Buffer
	if err := RenderAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NO DATA RACES") {
		t.Fatalf("clean report wrong:\n%s", buf.String())
	}
}

func TestRenderAnalysisFirstBeforeNonFirst(t *testing.T) {
	// The Figure 2b anomaly yields first and non-first partitions; the
	// first ones must be printed first.
	r, err := workload.RunFig2Stale(memmodel.WO, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fi := strings.Index(out, "[FIRST]")
	ni := strings.Index(out, "[non-first]")
	if fi < 0 {
		t.Fatalf("no first partition in report:\n%s", out)
	}
	if ni >= 0 && ni < fi {
		t.Fatalf("non-first printed before first:\n%s", out)
	}
	if !strings.Contains(out, "partition order (P):") ||
		!strings.Contains(out, "precedes partition") {
		t.Fatalf("partition order missing:\n%s", out)
	}
}

func TestRenderGraph(t *testing.T) {
	a := analyzeWorkload(t, workload.Figure1b(), 1)
	var buf bytes.Buffer
	if err := RenderGraph(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"P1:", "P2:", "so1←"} {
		if !strings.Contains(out, want) {
			t.Errorf("graph missing %q:\n%s", want, out)
		}
	}

	a = analyzeWorkload(t, workload.Figure1a(), 1)
	buf.Reset()
	if err := RenderGraph(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "race↔") {
		t.Errorf("racy graph missing race edges:\n%s", buf.String())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2, 3) // wider than the header
	tb.AddRow(4)       // narrower than the header
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3") || !strings.Contains(out, "4") {
		t.Fatalf("ragged cells lost:\n%s", out)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("T1. throughput", "model", "ops/s", "ratio")
	tb.AddRow("SC", 1000, 1.0)
	tb.AddRow("WO", 2500, 2.5)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "T1.") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "2.50") {
		t.Fatal("float formatting wrong")
	}
	// Columns aligned: header and rows start "model" / "SC   ".
	if !strings.HasPrefix(lines[3], "SC ") {
		t.Fatalf("alignment wrong: %q", lines[3])
	}
}

// BenchmarkRenderAnalysis renders the report of a contended 4-CPU
// trace of about 50k events, the size of the postmortem benchmark's
// median trace.
func BenchmarkRenderAnalysis(b *testing.B) {
	w := workload.Random(workload.RandomParams{CPUs: 4, Locks: 2, UnlockedFraction: 0.3, Segments: 1540, Seed: 1})
	r, err := sim.Run(w.Prog, sim.Config{Model: memmodel.WO, Seed: 1, InitMemory: w.InitMemory})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RenderAnalysis(io.Discard, a); err != nil {
			b.Fatal(err)
		}
	}
}
