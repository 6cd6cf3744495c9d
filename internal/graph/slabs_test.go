package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Building through one reused Slabs — stream tables, clocks, G′
// components — must give exactly what fresh slabs give, whatever the
// previous graph through it left behind: graphs of random widths and
// lengths, acyclic and cyclic, one after another.
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
		if got, want := kept.SCC(partners, &sc, &keep), fresh.SCC(partners, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: G′ components through reused slabs differ from fresh ones", label)
		}
	}
}
