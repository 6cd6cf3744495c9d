package core

import (
	"errors"
	"runtime"
	"testing"

	"weakrace/internal/trace"
)

// wideTrace is 65,536 CPUs — the most a decoded trace may declare —
// with one computation event each: under 0.5 MB encoded, but 2^32 clock
// cells, 34 GB of hb1 clocks alone.
func wideTrace() *trace.Trace {
	const cpus = 1 << 16
	streams := make([][]ev, cpus)
	for c := range streams {
		streams[c] = []ev{comp([]int{0}, nil)}
	}
	return mkTrace(1, streams...)
}

// TestAnalyzeLimitError: Analyze refuses a trace past MaxClockCells with
// a typed *LimitError carrying its sizes, before allocating the clocks —
// under the 16 MB budget the decoder's hostile inputs are held to.
func TestAnalyzeLimitError(t *testing.T) {
	const budget = 16 << 20
	tr := wideTrace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Analyze(tr, Options{})
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", alloc)
	if alloc > budget {
		t.Errorf("allocated %d bytes, budget %d", alloc, budget)
	}
	var le *LimitError
	if a != nil || !errors.As(err, &le) {
		t.Fatalf("Analyze = %v, %v; want a *LimitError", a, err)
	}
	want := LimitError{Events: 1 << 16, CPUs: 1 << 16, Cells: 1 << 32, Cap: MaxClockCells}
	if *le != want {
		t.Fatalf("LimitError %+v, want %+v", *le, want)
	}
}
