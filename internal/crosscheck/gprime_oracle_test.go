package crosscheck

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/oracle"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

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
	o := oracle.NewGPrime(tr, opts.Pairing)

	got := make([]oracle.Race, len(a.Races))
	for i, r := range a.Races {
		got[i] = oracle.Race{A: int(r.A), B: int(r.B)}
		for _, l := range r.Locs {
			got[i].Locs = append(got[i].Locs, int(l))
		}
	}
	if !reflect.DeepEqual(got, o.Races) && len(got)+len(o.Races) > 0 {
		t.Fatalf("%s: data races differ:\ncore:   %v\noracle: %v", label, got, o.Races)
	}
	if a.SyncRaces != o.SyncRaces {
		t.Fatalf("%s: sync races = %d, oracle %d", label, a.SyncRaces, o.SyncRaces)
	}
	gotParts := make([]oracle.Part, len(a.Partitions))
	for i, p := range a.Partitions {
		gotParts[i] = oracle.Part{Races: p.Races, First: p.First}
		for _, e := range p.Events {
			gotParts[i].Events = append(gotParts[i].Events, int(e))
		}
	}
	if !reflect.DeepEqual(gotParts, o.Parts) && len(gotParts)+len(o.Parts) > 0 {
		t.Fatalf("%s: partitions differ:\ncore:   %+v\noracle: %+v", label, gotParts, o.Parts)
	}
	if !slices.Equal(a.FirstPartitions, o.First) {
		t.Fatalf("%s: first partitions %v, oracle %v", label, a.FirstPartitions, o.First)
	}
	for i := range a.Partitions {
		for j := range a.Partitions {
			want := o.Precedes(i, j)
			if i != j && a.PartitionPrecedes(i, j) != want {
				t.Fatalf("%s: PartitionPrecedes(%d,%d) = %v, oracle %v", label, i, j, !want, want)
			}
		}
	}
	var wantEdges, gotEdges []string
	for u, m := range o.MinPartner {
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
