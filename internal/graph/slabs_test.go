package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Building through one reused Slabs — stream tables, clocks, G′
// components and condensation, its reachability rows — must give exactly
// what fresh slabs give, whatever the previous graph through it left
// behind: graphs of random widths and lengths, acyclic and cyclic, one
// after another.
func TestSlabsReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var (
		keep Slabs
		sc   Scratch
	)
	for trial := 0; trial < 200; trial++ {
		fresh, adj, base := randStreams(rng, 1+rng.Intn(6), 9, rng.Float64()*0.4)
		partners, _ := randomPartners(rng, fresh, adj, base, rng.Float64()*0.3)
		var kept Streams
		kept.Reset(base, fresh.rel, &keep)
		label := fmt.Sprintf("trial %d", trial)
		if got, want := NewTimestamps(&kept, &sc, &keep), NewTimestamps(fresh, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: timestamps through reused slabs differ from fresh ones", label)
		}
		got, want := kept.SCC(partners, &sc, &keep), fresh.SCC(partners, nil, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: G′ components or condensation through reused slabs differ from fresh ones", label)
		}
		// Every query materializes rows, which a reused row table must
		// not carry into the next trial.
		gotCR, wantCR := NewCondReach(got, &keep), NewCondReach(want, nil)
		for c1 := 0; c1 < want.NumComponents(); c1++ {
			for c2 := 0; c2 < want.NumComponents(); c2++ {
				if gotCR.ComponentReaches(c1, c2) != wantCR.ComponentReaches(c1, c2) {
					t.Fatalf("%s: condensation reachability %d⇝%d through reused slabs differs", label, c1, c2)
				}
			}
		}
	}
}
