// Package report renders detection results for humans: the race report a
// programmer would read (first partitions, with lower-level provenance),
// a Figure-3-style view of the augmented happens-before-1 graph, and the
// plain-text tables of the experiment harness.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"weakrace/internal/core"
)

// RenderAnalysis writes the programmer-facing race report: Theorem 4.1's
// verdict, then each partition (first partitions lead) with its races and
// their lower-level provenance. Each line is built in one reused buffer
// and written with one Write.
func RenderAnalysis(w io.Writer, a *core.Analysis) error {
	rw := &lineWriter{w: w}
	t := a.Trace
	b := append(rw.b[:0], "race report for "...)
	b = strconv.AppendQuote(b, t.ProgramName)
	b = append(b, " (model "...)
	b = append(b, t.Model.String()...)
	b = append(b, ", seed "...)
	b = strconv.AppendInt(b, t.Seed, 10)
	b = append(b, "): "...)
	b = strconv.AppendInt(b, int64(a.NumEvents), 10)
	b = append(b, " events, "...)
	b = strconv.AppendInt(b, int64(len(a.Races)+a.SyncRaces), 10)
	b = append(b, " races ("...)
	b = strconv.AppendInt(b, int64(len(a.Races)), 10)
	b = append(b, " data), "...)
	b = strconv.AppendInt(b, int64(len(a.Partitions)), 10)
	b = append(b, " partitions ("...)
	b = strconv.AppendInt(b, int64(len(a.FirstPartitions)), 10)
	rw.line(append(b, " first)\n"...))
	if a.RaceFree() {
		rw.line(append(rw.b[:0], "NO DATA RACES: by Condition 3.4(1) this execution was sequentially consistent.\n"...))
		return rw.err
	}
	rw.line(append(rw.b[:0], "report the first partitions; by Theorem 4.2 each contains a race that\noccurs in a sequentially consistent execution.\n"...))
	var lls []core.LowerLevelRace
	render := func(pi int) {
		if rw.err != nil {
			return
		}
		p := a.Partitions[pi]
		tag := "non-first"
		if p.First {
			tag = "FIRST"
		}
		b := append(rw.b[:0], "partition "...)
		b = strconv.AppendInt(b, int64(pi), 10)
		b = append(b, " ["...)
		b = append(b, tag...)
		b = append(b, "]: "...)
		b = strconv.AppendInt(b, int64(len(p.Races)), 10)
		b = append(b, " race(s) over events "...)
		b = appendEventList(b, a, p.Events)
		rw.line(append(b, '\n'))
		for _, ri := range p.Races {
			r := a.Races[ri]
			b := append(rw.b[:0], "  race ⟨"...)
			b = a.Ref(r.A).AppendTo(b)
			b = append(b, ", "...)
			b = a.Ref(r.B).AppendTo(b)
			b = append(b, "⟩ on locations "...)
			b = r.Locs.AppendTo(b)
			rw.line(append(b, '\n'))
			lls = a.AppendLowerLevel(lls[:0], r)
			for _, ll := range lls {
				b := append(rw.b[:0], "    "...)
				b = ll.AppendTo(b)
				rw.line(append(b, '\n'))
			}
		}
	}
	for _, pi := range a.FirstPartitions {
		render(pi)
	}
	for pi := range a.Partitions {
		if !a.Partitions[pi].First {
			render(pi)
		}
	}
	// The partial order P (Definition 4.1) among partitions, so the
	// programmer can see which races are downstream of which.
	printedHeader := false
	for i := 0; i < len(a.Partitions) && rw.err == nil; i++ {
		for j := range a.Partitions {
			if i == j || !a.PartitionPrecedes(i, j) {
				continue
			}
			if !printedHeader {
				rw.line(append(rw.b[:0], "partition order (P):\n"...))
				printedHeader = true
			}
			b := append(rw.b[:0], "  partition "...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, " precedes partition "...)
			b = strconv.AppendInt(b, int64(j), 10)
			rw.line(append(b, '\n'))
		}
	}
	return rw.err
}

// appendEventList appends ids as {P1.0, P2.3}.
func appendEventList(b []byte, a *core.Analysis, ids []core.EventID) []byte {
	b = append(b, '{')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.Ref(id).AppendTo(b)
	}
	return append(b, '}')
}

func eventList(a *core.Analysis, ids []core.EventID) string {
	return string(appendEventList(nil, a, ids))
}

// lineWriter writes whole lines built in its reused buffer b, one Write
// per line, and keeps the first write error; after an error it writes
// nothing more.
type lineWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// line writes b, which the caller built on rw.b[:0], and keeps the
// (possibly grown) buffer for the next line.
func (rw *lineWriter) line(b []byte) {
	rw.b = b
	if rw.err == nil {
		_, rw.err = rw.w.Write(b)
	}
}

// RenderGraph writes a Figure-3-style view of the augmented
// happens-before-1 graph: each processor's events in order, annotated
// with so1 pairings, race edges, and partition membership.
func RenderGraph(w io.Writer, a *core.Analysis) error {
	// Index races by event for annotation.
	raceWith := map[core.EventID][]core.EventID{}
	for _, r := range a.Races {
		raceWith[r.A] = append(raceWith[r.A], r.B)
		raceWith[r.B] = append(raceWith[r.B], r.A)
	}
	partOf := map[core.EventID]int{}
	for pi, p := range a.Partitions {
		for _, id := range p.Events {
			partOf[id] = pi
		}
	}
	if _, err := fmt.Fprintf(w, "augmented happens-before-1 graph for %q:\n", a.Trace.ProgramName); err != nil {
		return err
	}
	for c := range a.Trace.NumCPUs {
		if _, err := fmt.Fprintf(w, "P%d:\n", c+1); err != nil {
			return err
		}
		from, to := a.Trace.Stream(c)
		for i := from; i < to; i++ {
			id := core.EventID(i)
			var notes []string
			if rel, ok := a.SO1(id); ok {
				notes = append(notes, fmt.Sprintf("so1← %s", a.Ref(rel)))
			}
			for _, other := range raceWith[id] {
				notes = append(notes, fmt.Sprintf("race↔ %s", a.Ref(other)))
			}
			if pi, ok := partOf[id]; ok {
				tag := "non-first"
				if a.Partitions[pi].First {
					tag = "FIRST"
				}
				notes = append(notes, fmt.Sprintf("partition %d (%s)", pi, tag))
			}
			suffix := ""
			if len(notes) > 0 {
				suffix = "   [" + strings.Join(notes, "; ") + "]"
			}
			if _, err := fmt.Fprintf(w, "  %3d: %s%s\n", i-from, a.Trace.EventString(i), suffix); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table accumulates rows and renders them with aligned columns, in the
// style of a paper table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table. Rows wider than the header get extra
// unlabeled columns rather than being truncated.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, row := range t.rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}
