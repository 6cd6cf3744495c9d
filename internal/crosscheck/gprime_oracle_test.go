package crosscheck

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/memmodel"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

// gPrimeOracle recomputes core.Analyze's races and partitions straight
// from the trace with none of its machinery: the hb1 closure by a DFS
// from every event, every conflicting hb1-unordered pair (sync pairs
// included) by brute force, the augmented graph G′ written down as §4.2
// does — hb1 plus a doubly-directed edge per race — and its components
// by a plain recursive Tarjan. It is quadratic to cubic in the event
// count and meant for corpus-sized traces.
type gPrimeOracle struct {
	races     []oracleRace // data races, sorted by (A, B)
	syncRaces int
	// minPartner[u][c] is u's po-minimal race partner on CPU c (data or
	// sync race): the compressed G′ edge core keeps per (event, CPU).
	minPartner []map[int]int
	comp       []int    // G′ component of every event
	gReach     [][]bool // gReach[u][v]: v reachable from u in G′
	parts      []oraclePart
	first      []int
}

type oracleRace struct {
	a, b int
	locs []int
}

type oraclePart struct {
	races  []int
	events []int
	first  bool
}

// newGPrimeOracle builds the oracle for a trace under the given pairing
// policy.
func newGPrimeOracle(tr *trace.Trace, pairing memmodel.PairingPolicy) *gPrimeOracle {
	var evs []*trace.Event
	var cpuOf []int
	base := make([]int, tr.NumCPUs)
	for c, s := range tr.PerCPU {
		base[c] = len(evs)
		for _, ev := range s {
			evs = append(evs, ev)
			cpuOf = append(cpuOf, c)
		}
	}
	n := len(evs)
	id := func(r trace.EventRef) int { return base[r.CPU] + r.Index }

	// hb1 = (po ∪ so1)+ (Definitions 2.2–2.3).
	hb := make([][]int, n)
	for u := 0; u+1 < n; u++ {
		if cpuOf[u] == cpuOf[u+1] {
			hb[u] = append(hb[u], u+1)
		}
	}
	for v, ev := range evs {
		if ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire &&
			ev.Observed.Valid() && pairing.CanPair(ev.ObservedRole) {
			u := id(ev.Observed)
			hb[u] = append(hb[u], v)
		}
	}
	hbReach := closure(hb)

	// Every conflicting, hb1-unordered pair.
	accesses := func(ev *trace.Event) map[int]bool {
		m := map[int]bool{}
		if ev.Kind == trace.Sync {
			m[int(ev.Loc)] = ev.IsWriteSync()
			return m
		}
		ev.Reads.Range(func(l int) bool { m[l] = false; return true })
		ev.Writes.Range(func(l int) bool { m[l] = true; return true })
		return m
	}
	acc := make([]map[int]bool, n)
	for u, ev := range evs {
		acc[u] = accesses(ev)
	}
	o := &gPrimeOracle{minPartner: make([]map[int]int, n)}
	g := make([][]int, n)
	for u := range hb {
		g[u] = append([]int(nil), hb[u]...)
	}
	addPartner := func(u, v int) {
		if o.minPartner[u] == nil {
			o.minPartner[u] = map[int]int{}
		}
		if m, ok := o.minPartner[u][cpuOf[v]]; !ok || v < m {
			o.minPartner[u][cpuOf[v]] = v
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if hbReach[u][v] || hbReach[v][u] {
				continue
			}
			var locs []int
			for l, wu := range acc[u] {
				if wv, ok := acc[v][l]; ok && (wu || wv) {
					locs = append(locs, l)
				}
			}
			if len(locs) == 0 {
				continue
			}
			slices.Sort(locs)
			g[u] = append(g[u], v)
			g[v] = append(g[v], u)
			addPartner(u, v)
			addPartner(v, u)
			if evs[u].Kind == trace.Sync && evs[v].Kind == trace.Sync {
				o.syncRaces++
			} else {
				o.races = append(o.races, oracleRace{a: u, b: v, locs: locs})
			}
		}
	}

	o.comp = tarjan(g)
	o.gReach = closure(g)

	// Partitions: data races grouped by G′ component, ordered by their
	// smallest event; a partition is first when no other reaches it.
	byComp := map[int]*oraclePart{}
	var order []*oraclePart
	for ri, r := range o.races {
		p := byComp[o.comp[r.a]]
		if p == nil {
			p = &oraclePart{}
			byComp[o.comp[r.a]] = p
			order = append(order, p)
		}
		p.races = append(p.races, ri)
		for _, e := range []int{r.a, r.b} {
			if !slices.Contains(p.events, e) {
				p.events = append(p.events, e)
			}
		}
	}
	for _, p := range order {
		slices.Sort(p.events)
	}
	slices.SortFunc(order, func(x, y *oraclePart) int { return x.events[0] - y.events[0] })
	for i, p := range order {
		p.first = true
		for j, q := range order {
			if i != j && o.gReach[q.events[0]][p.events[0]] {
				p.first = false
			}
		}
		if p.first {
			o.first = append(o.first, i)
		}
		o.parts = append(o.parts, *p)
	}
	return o
}

// closure returns reach[u][v] = v is reachable from u (reflexively).
func closure(g [][]int) [][]bool {
	reach := make([][]bool, len(g))
	for s := range g {
		seen := make([]bool, len(g))
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		reach[s] = seen
	}
	return reach
}

// tarjan returns a strongly-connected-component id per node.
func tarjan(g [][]int) []int {
	n := len(g)
	index, low, comp := make([]int, n), make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	var stack []int
	next, ncomp := 0, 0
	var visit func(u int)
	visit = func(u int) {
		index[u], low[u] = next, next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range g[u] {
			if index[v] < 0 {
				visit(v)
				low[u] = min(low[u], low[v])
			} else if onStack[v] {
				low[u] = min(low[u], index[v])
			}
		}
		if low[u] == index[u] {
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				comp[v] = ncomp
				if v == u {
					break
				}
			}
			ncomp++
		}
	}
	for u := 0; u < n; u++ {
		if index[u] < 0 {
			visit(u)
		}
	}
	return comp
}

// checkAgainstGPrimeOracle analyzes tr with opts and requires the result
// to match the oracle: data races with their locations, the sync-race
// count, the partitions (component ids masked — Tarjan numbering is the
// one thing allowed to differ), first partitions, the partition order,
// the detect.aug_edges counter, and the flight recorder's partner edges,
// which must be exactly the per-(event, CPU) po-minimal race partners.
// It returns the analysis for further checks.
func checkAgainstGPrimeOracle(t *testing.T, label string, tr *trace.Trace, opts core.Options) *core.Analysis {
	t.Helper()
	reg := telemetry.Default()
	reg.Reset()
	reg.SetEnabled(true)
	fr := export.NewRecorder()
	opts.Flight = fr
	a, err := core.Analyze(tr, opts)
	augEdges := reg.Snapshot().Counters["detect.aug_edges"]
	reg.SetEnabled(false)
	reg.Reset()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	o := newGPrimeOracle(tr, opts.Pairing)

	got := make([]oracleRace, len(a.Races))
	for i, r := range a.Races {
		got[i] = oracleRace{a: int(r.A), b: int(r.B)}
		r.Locs.Range(func(l int) bool { got[i].locs = append(got[i].locs, l); return true })
	}
	if !reflect.DeepEqual(got, o.races) && len(got)+len(o.races) > 0 {
		t.Fatalf("%s: data races differ:\ncore:   %v\noracle: %v", label, got, o.races)
	}
	if a.SyncRaces != o.syncRaces {
		t.Fatalf("%s: sync races = %d, oracle %d", label, a.SyncRaces, o.syncRaces)
	}
	gotParts := make([]oraclePart, len(a.Partitions))
	for i, p := range a.Partitions {
		gotParts[i] = oraclePart{races: p.Races, first: p.First}
		for _, e := range p.Events {
			gotParts[i].events = append(gotParts[i].events, int(e))
		}
	}
	if !reflect.DeepEqual(gotParts, o.parts) && len(gotParts)+len(o.parts) > 0 {
		t.Fatalf("%s: partitions differ:\ncore:   %+v\noracle: %+v", label, gotParts, o.parts)
	}
	if !slices.Equal(a.FirstPartitions, o.first) {
		t.Fatalf("%s: first partitions %v, oracle %v", label, a.FirstPartitions, o.first)
	}
	for i := range a.Partitions {
		for j := range a.Partitions {
			want := o.gReach[o.parts[i].events[0]][o.parts[j].events[0]]
			if i != j && a.PartitionPrecedes(i, j) != want {
				t.Fatalf("%s: PartitionPrecedes(%d,%d) = %v, oracle %v", label, i, j, !want, want)
			}
		}
	}
	var wantEdges, gotEdges []string
	for u, m := range o.minPartner {
		for _, v := range m {
			wantEdges = append(wantEdges, fmt.Sprintf("%d>%d", u, v))
		}
	}
	for _, rec := range fr.Records() {
		if rec.Kind == export.KindEdge && rec.Edge.Origin == export.OriginPartner {
			gotEdges = append(gotEdges, fmt.Sprintf("%d>%d", rec.Edge.From, rec.Edge.To))
		}
	}
	slices.Sort(wantEdges)
	slices.Sort(gotEdges)
	if !slices.Equal(gotEdges, wantEdges) {
		t.Fatalf("%s: partner edges differ:\ncore:   %v\noracle: %v", label, gotEdges, wantEdges)
	}
	if augEdges != int64(len(wantEdges)) {
		t.Fatalf("%s: detect.aug_edges = %d, oracle %d", label, augEdges, len(wantEdges))
	}
	return a
}
