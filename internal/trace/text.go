package trace

import (
	"fmt"
	"io"
	"strconv"

	"weakrace/internal/program"
)

// Dump writes a human-readable rendering of the trace — the debugging view
// of what the instrumentation recorded. The binary codec is authoritative;
// this format is not parsed back.
func Dump(w io.Writer, t *Trace) error {
	if _, err := fmt.Fprintf(w, "trace %q model=%s seed=%d cpus=%d locations=%d events=%d\n",
		t.ProgramName, t.Model, t.Seed, t.NumCPUs, t.NumLocations, t.NumEvents()); err != nil {
		return err
	}
	for c := 0; c < t.NumCPUs; c++ {
		if _, err := fmt.Fprintf(w, "P%d:\n", c+1); err != nil {
			return err
		}
		from, to := t.Stream(c)
		for i := from; i < to; i++ {
			var err error
			if t.events[i].kind == Sync {
				_, err = fmt.Fprintf(w, "  %3d: %s\n", i-from, t.EventString(i))
			} else {
				_, err = fmt.Fprintf(w, "  %3d: comp reads=%s writes=%s%s\n",
					i-from, t.Reads(i), t.Writes(i), t.pcAnnotations(i))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pcAnnotations renders computation event i's PC provenance in location
// order, a location's read entry before its write entry.
func (t *Trace) pcAnnotations(i int) string {
	r, w := t.Reads(i), t.Writes(i)
	rpc, wpc := t.ReadPCs(i), t.WritePCs(i)
	if len(r) == 0 && len(w) == 0 {
		return ""
	}
	b := []byte(" pcs[")
	entry := func(rw byte, loc program.Addr, pc int) {
		if len(b) > len(" pcs[") {
			b = append(b, ' ')
		}
		b = append(b, rw)
		b = strconv.AppendInt(b, int64(loc), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(pc), 10)
	}
	for len(r) > 0 || len(w) > 0 {
		if len(w) == 0 || (len(r) > 0 && r[0] <= w[0]) {
			entry('r', r[0], rpc[0])
			r, rpc = r[1:], rpc[1:]
		} else {
			entry('w', w[0], wpc[0])
			w, wpc = w[1:], wpc[1:]
		}
	}
	return string(append(b, ']'))
}
