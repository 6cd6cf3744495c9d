// Package experiments regenerates every figure of the paper and a table
// for each quantitative claim of §5 (the paper has no numeric tables; the
// tables here quantify the claims its evaluation argues qualitatively).
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/report"
	"weakrace/internal/scp"
	"weakrace/internal/sim"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// Fig2Config is the weak-model configuration used to reproduce the
// Figure 2b anomaly (a smaller RetireProb keeps P1's queue write buffered
// longer, widening the reordering window).
var Fig2Config = sim.Config{Model: memmodel.WO, RetireProb: 0.15}

// Fig2MaxSeed bounds the stale-dequeue seed search.
const Fig2MaxSeed = 20000

func runAndAnalyze(w *workload.Workload, cfg sim.Config) (*sim.Result, *core.Analysis, error) {
	cfg.InitMemory = w.InitMemory
	r, err := sim.Run(w.Prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return r, a, nil
}

// Figure1a reproduces Figure 1a: an execution with data races. It prints
// the execution, the detector's report, and checks the expected shape.
func Figure1a(out io.Writer) error {
	w := workload.Figure1a()
	r, a, err := runAndAnalyze(w, sim.Config{Model: memmodel.WO, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "=== Figure 1a: execution WITH data races ===\n")
	printOps(out, r.Exec)
	if err := report.RenderAnalysis(out, a); err != nil {
		return err
	}
	if a.RaceFree() {
		return fmt.Errorf("figure 1a: expected data races, found none")
	}
	fmt.Fprintf(out, "MATCHES PAPER: conflicting Write/Read pairs on x and y are unordered by hb1.\n\n")
	return nil
}

// Figure1b reproduces Figure 1b: the race-free variant via Unset/Test&Set
// pairing.
func Figure1b(out io.Writer) error {
	w := workload.Figure1b()
	r, a, err := runAndAnalyze(w, sim.Config{Model: memmodel.WO, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "=== Figure 1b: execution WITHOUT data races ===\n")
	printOps(out, r.Exec)
	if err := report.RenderAnalysis(out, a); err != nil {
		return err
	}
	if !a.RaceFree() {
		return fmt.Errorf("figure 1b: expected race freedom")
	}
	fmt.Fprintf(out, "MATCHES PAPER: all conflicting data operations ordered by hb1 via the\nUnset(s) --so1--> Test&Set(s) pairing.\n\n")
	return nil
}

// Figure2 reproduces the Figure 2b anomaly: a weak execution of the
// work-queue program in which P2 observes QEmpty's new value but Q's old
// one, then collides with P3's region. Prints the execution with the
// "End of SCP" marker computed by the exact verifier.
func Figure2(out io.Writer) (*sim.Result, error) {
	r, seed, ok := workload.FindFig2StaleSeed(Fig2Config, Fig2MaxSeed)
	if !ok {
		// The anomaly occurs naturally in ~0.1% of seeds; if the search
		// window missed it, construct it deterministically instead.
		var err error
		r, err = workload.RunFig2Stale(Fig2Config.Model, 1)
		if err != nil {
			return nil, fmt.Errorf("figure 2: %w", err)
		}
		seed = -1
	}
	fmt.Fprintf(out, "=== Figure 2: weak execution of the work-queue program (WO, seed %d) ===\n", seed)
	fmt.Fprintf(out, "P1 enqueues address %d and clears QEmpty; P2 reads QEmpty=0 but dequeues the\nSTALE address %d; its region overlaps P3's.\n",
		workload.Fig2FreshAddr, workload.Fig2StaleAddr)
	boundary, decided := scp.SCBoundary(r.Exec, 1<<20)
	printOpsWithBoundary(out, r.Exec, boundary)
	fmt.Fprintf(out, "longest sequentially consistent prefix: %d of %d operations (exact=%v)\n",
		boundary, len(r.Exec.Ops), decided)
	sc, _ := scp.VerifySC(r.Exec, 1<<20)
	if sc {
		return nil, fmt.Errorf("figure 2: anomaly execution verified SC")
	}
	fmt.Fprintf(out, "MATCHES PAPER: the execution is not sequentially consistent, but has a\nsequentially consistent prefix extending through the first data races.\n\n")
	return r, nil
}

// Figure3 reproduces Figure 3: the augmented happens-before-1 graph of
// the Figure 2b execution, with its first and non-first data race
// partitions.
func Figure3(out io.Writer) error {
	r, err := Figure2(io.Discard)
	if err != nil {
		return err
	}
	a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "=== Figure 3: augmented hb1 graph, first and non-first partitions ===\n")
	if err := report.RenderGraph(out, a); err != nil {
		return err
	}
	if err := report.RenderAnalysis(out, a); err != nil {
		return err
	}
	if len(a.FirstPartitions) < 1 || len(a.Partitions) <= len(a.FirstPartitions) {
		return fmt.Errorf("figure 3: expected both first and non-first partitions, got %d/%d",
			len(a.FirstPartitions), len(a.Partitions))
	}
	// The first partition must be the queue races; the paper's
	// non-sequentially-consistent region races must be non-first.
	first := a.Partitions[a.FirstPartitions[0]]
	queueRace := false
	for _, ri := range first.Races {
		if a.Races[ri].Locs.Contains(workload.Fig2Q) ||
			a.Races[ri].Locs.Contains(workload.Fig2QEmpty) {
			queueRace = true
		}
	}
	if !queueRace {
		return fmt.Errorf("figure 3: first partition does not contain the queue races")
	}
	fmt.Fprintf(out, "MATCHES PAPER: the queue races (sequentially consistent) form the first\npartition; the region races (non-SC artifacts) are ordered after it.\n\n")
	return nil
}

func printOps(out io.Writer, e *sim.Execution) {
	printOpsWithBoundary(out, e, -1)
}

// printOpsWithBoundary lists each processor's operations; ops with ID >=
// boundary (when boundary >= 0) are marked as beyond the SC prefix.
func printOpsWithBoundary(out io.Writer, e *sim.Execution, boundary int) {
	for c := 0; c < e.NumCPUs; c++ {
		fmt.Fprintf(out, "P%d:", c+1)
		for _, op := range e.OpsOf(c) {
			mark := ""
			if boundary >= 0 && op.ID >= boundary {
				mark = "*"
			}
			fmt.Fprintf(out, "  %s(%d)=%d%s", op.Kind, op.Loc, op.Value, mark)
		}
		fmt.Fprintln(out)
	}
	if boundary >= 0 {
		fmt.Fprintf(out, "(* = beyond the sequentially consistent prefix)\n")
	}
}
