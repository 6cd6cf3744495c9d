package trace

import (
	"fmt"
	"io"
	"strconv"
)

// Dump writes a human-readable rendering of the trace — the debugging view
// of what the instrumentation recorded. The binary codec is authoritative;
// this format is not parsed back.
func Dump(w io.Writer, t *Trace) error {
	if _, err := fmt.Fprintf(w, "trace %q model=%s seed=%d cpus=%d locations=%d events=%d\n",
		t.ProgramName, t.Model, t.Seed, t.NumCPUs, t.NumLocations, t.NumEvents()); err != nil {
		return err
	}
	for c, evs := range t.PerCPU {
		if _, err := fmt.Fprintf(w, "P%d:\n", c+1); err != nil {
			return err
		}
		for i, ev := range evs {
			var err error
			switch ev.Kind {
			case Sync:
				_, err = fmt.Fprintf(w, "  %3d: %s\n", i, ev)
			case Comp:
				_, err = fmt.Fprintf(w, "  %3d: comp reads=%s writes=%s%s\n",
					i, ev.Reads, ev.Writes, pcAnnotations(ev))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pcAnnotations renders a computation event's PC provenance in location
// order, a location's read entry before its write entry.
func pcAnnotations(ev *Event) string {
	if len(ev.ReadPC) == 0 && len(ev.WritePC) == 0 {
		return ""
	}
	b := []byte(" pcs[")
	entry := func(rw byte, e LocPC) {
		if len(b) > len(" pcs[") {
			b = append(b, ' ')
		}
		b = append(b, rw)
		b = strconv.AppendInt(b, int64(e.Loc), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(e.PC), 10)
	}
	r, w := ev.ReadPC, ev.WritePC
	for len(r) > 0 || len(w) > 0 {
		if len(w) == 0 || (len(r) > 0 && r[0].Loc <= w[0].Loc) {
			entry('r', r[0])
			r = r[1:]
		} else {
			entry('w', w[0])
			w = w[1:]
		}
	}
	return string(append(b, ']'))
}
