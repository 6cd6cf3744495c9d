package crosscheck

import (
	"weakrace/internal/program"
	"weakrace/internal/trace"
)

// spec is one event of a test trace before it is built: a
// synchronization event, or a computation event's accesses.
type spec struct {
	comp          bool
	reads, writes []trace.LocPC
	sync          trace.SyncEvent
}

// compSpec is a computation event over sorted location sets, every PC 0.
func compSpec(reads, writes []program.Addr) spec {
	list := func(locs []program.Addr) []trace.LocPC {
		var out []trace.LocPC
		for _, l := range locs {
			out = append(out, trace.LocPC{Loc: l})
		}
		return out
	}
	return spec{comp: true, reads: list(reads), writes: list(writes)}
}

// build builds one stream per processor; an invalid trace is a bug in
// the test's generator and panics.
func build(h trace.Header, streams [][]spec) *trace.Trace {
	b := trace.NewBuilder(h)
	for c, evs := range streams {
		for _, e := range evs {
			if e.comp {
				b.Comp(c, e.reads, e.writes)
			} else {
				b.Sync(c, e.sync)
			}
		}
	}
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tr
}

// specsOf lists tr's events as specs, PC provenance included.
func specsOf(tr *trace.Trace) [][]spec {
	out := make([][]spec, tr.NumCPUs)
	for c := range out {
		from, to := tr.Stream(c)
		for i := from; i < to; i++ {
			e := tr.Event(i)
			if e.Kind() == trace.Comp {
				s := spec{comp: true}
				for k, l := range tr.Reads(i) {
					s.reads = append(s.reads, trace.LocPC{Loc: l, PC: tr.ReadPCs(i)[k]})
				}
				for k, l := range tr.Writes(i) {
					s.writes = append(s.writes, trace.LocPC{Loc: l, PC: tr.WritePCs(i)[k]})
				}
				out[c] = append(out[c], s)
				continue
			}
			s := trace.SyncEvent{Role: e.Role(), Loc: e.Loc(), SyncSeq: e.SyncSeq(), PC: e.PC(), Observed: trace.NoEvent}
			if e.Observed() >= 0 {
				s.Observed, s.ObservedRole = tr.Ref(e.Observed()), e.ObservedRole()
			}
			out[c] = append(out[c], spec{sync: s})
		}
	}
	return out
}
