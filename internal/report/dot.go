package report

import (
	"fmt"
	"io"
	"strings"

	"weakrace/internal/core"
	"weakrace/internal/provenance"
	"weakrace/internal/trace"
)

// RenderDOT writes the augmented happens-before-1 graph in Graphviz DOT
// form — the publishable rendering of the paper's Figure 3. Each
// processor becomes a cluster of its events in program order; so1
// pairings are dashed edges; races are red double-headed edges; partition
// membership colors the racing events (first partitions solid, non-first
// hollow).
func RenderDOT(w io.Writer, a *core.Analysis) error {
	var sb strings.Builder
	sb.WriteString("digraph hb1 {\n")
	sb.WriteString("  rankdir=TB;\n")
	sb.WriteString("  node [shape=box, fontname=\"Helvetica\", fontsize=10];\n")
	fmt.Fprintf(&sb, "  label=%q;\n", fmt.Sprintf("augmented happens-before-1 graph: %s (%s, seed %d)",
		a.Trace.ProgramName, a.Trace.Model, a.Trace.Seed))

	partOf := map[core.EventID]int{}
	for pi, p := range a.Partitions {
		for _, id := range p.Events {
			partOf[id] = pi
		}
	}

	node := func(id core.EventID) string { return fmt.Sprintf("e%d", id) }
	for c := range a.Trace.NumCPUs {
		fmt.Fprintf(&sb, "  subgraph cluster_p%d {\n", c)
		fmt.Fprintf(&sb, "    label=\"P%d\";\n", c+1)
		from, to := a.Trace.Stream(c)
		for i := from; i < to; i++ {
			id := core.EventID(i)
			label := eventLabel(a.Trace, i)
			attrs := ""
			if pi, ok := partOf[id]; ok {
				if a.Partitions[pi].First {
					attrs = ", style=filled, fillcolor=\"#ffd6d6\", color=red"
				} else {
					attrs = ", color=red"
				}
			}
			fmt.Fprintf(&sb, "    %s [label=%q%s];\n", node(id), label, attrs)
		}
		// Program order chain.
		for i := from; i+1 < to; i++ {
			fmt.Fprintf(&sb, "    %s -> %s;\n", node(core.EventID(i)), node(core.EventID(i+1)))
		}
		sb.WriteString("  }\n")
	}

	// so1 edges.
	for id := range core.EventID(a.NumEvents) {
		if rel, ok := a.SO1(id); ok {
			fmt.Fprintf(&sb, "  %s -> %s [style=dashed, label=\"so1\", fontsize=8];\n", node(rel), node(id))
		}
	}

	// Race edges (data races only; one double-headed edge per race).
	for ri := range a.Races {
		r := a.Races[ri]
		fmt.Fprintf(&sb, "  %s -> %s [dir=both, color=red, label=%q, fontsize=8];\n",
			node(r.A), node(r.B), "race "+r.Locs.String())
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func eventLabel(t *trace.Trace, i int) string {
	if ev := t.Event(i); ev.Kind() == trace.Sync {
		return fmt.Sprintf("%s(%d)", ev.Role(), ev.Loc())
	}
	return fmt.Sprintf("R%s W%s", t.Reads(i), t.Writes(i))
}

// RenderPartitionDOT writes the condensation view of the augmented graph
// in Graphviz DOT form: one node per data-race partition, colored by
// first status exactly as the HTML report colors its DAG (first filled
// red, non-first hollow), labeled with the partition's race-partner edge
// and event counts, and connected by the immediate edges of the
// partition order P — the transitive reduction, so the drawing matches
// Definition 4.1 without clutter.
func RenderPartitionDOT(w io.Writer, e *provenance.Explainer) error {
	a := e.Analysis()
	var sb strings.Builder
	sb.WriteString("digraph partitions {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [shape=box, fontname=\"Helvetica\", fontsize=10];\n")
	fmt.Fprintf(&sb, "  label=%q;\n", fmt.Sprintf("data-race partitions: %s (%s, seed %d) — %d first of %d",
		a.Trace.ProgramName, a.Trace.Model, a.Trace.Seed, len(a.FirstPartitions), len(a.Partitions)))
	for pi, p := range a.Partitions {
		attrs := "color=\"#59636e\""
		if p.First {
			attrs = "style=filled, fillcolor=\"#ffd6d6\", color=red, penwidth=2"
		}
		fmt.Fprintf(&sb, "  p%d [label=%q, %s];\n", pi,
			fmt.Sprintf("partition %d%s\n%d race edge(s), %d event(s)",
				pi, map[bool]string{true: " ★", false: ""}[p.First], len(p.Races), len(p.Events)),
			attrs)
	}
	for i, outs := range e.ImmediateSuccessors() {
		for _, j := range outs {
			fmt.Fprintf(&sb, "  p%d -> p%d [label=\"precedes\", fontsize=8];\n", i, j)
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
