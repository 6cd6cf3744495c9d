package crosscheck

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"weakrace/internal/core"
	"weakrace/internal/onthefly"
	"weakrace/internal/sim"
	"weakrace/internal/stream"
	"weakrace/internal/telemetry"
	"weakrace/internal/trace"
	"weakrace/internal/workload"
)

// The wrserve acceptance bar: streaming every trace of the 60-trace
// corpus through the daemon at window=∞ must reproduce, byte for byte,
// the race list of the unbounded on-the-fly detector — which the
// differential suite above pins to the post-mortem oracle (every
// post-mortem race present exactly; the converse up to the PC-coarse
// projection). Transitively, the daemon inherits the oracle agreement,
// and this test re-checks the post-mortem inclusion directly against
// the streamed set so a regression in either hop fails here.
func TestStreamedCorpusMatchesPostMortemOracle(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(true)
	srv, err := stream.Serve(stream.Options{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	corpus := workload.Corpus(60, 1)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for trial, c := range corpus {
		wg.Add(1)
		go func(trial int, c workload.CorpusEntry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			r, err := sim.Run(c.Workload.Prog, sim.Config{Model: c.Model, Seed: c.Seed, InitMemory: c.Workload.InitMemory})
			if err != nil {
				t.Error(err)
				return
			}
			sum, err := stream.Send(srv.Addr(), r.Exec, stream.SendOptions{BatchSize: 32})
			if err != nil {
				t.Errorf("trial %d: %v", trial, err)
				return
			}

			// Hop 1: byte-identical to the unbounded on-the-fly detector.
			otf := onthefly.Detect(r.Exec, onthefly.Options{})
			want := make([]string, 0, len(otf.Races))
			for ll := range otf.Races {
				want = append(want, ll.String())
			}
			sort.Strings(want)
			if !reflect.DeepEqual(sum.Races, want) {
				t.Errorf("trial %d (%s, %v, seed %d): streamed races differ from on-the-fly:\n got %v\nwant %v",
					trial, c.Workload.Name, c.Model, c.Seed, sum.Races, want)
				return
			}

			// Hop 2: every post-mortem race is in the streamed set exactly.
			a, err := core.Analyze(trace.FromExecution(r.Exec), core.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			streamed := make(map[string]bool, len(sum.Races))
			for _, race := range sum.Races {
				streamed[race] = true
			}
			for ri := range a.Races {
				for _, ll := range a.LowerLevel(a.Races[ri]) {
					if !streamed[ll.Canonical().String()] {
						t.Errorf("trial %d (%s, %v, seed %d): post-mortem race missing from streamed set: %v",
							trial, c.Workload.Name, c.Model, c.Seed, ll.Canonical())
					}
				}
			}
		}(trial, c)
	}
	wg.Wait()

	if got := reg.Counter("stream.streams_closed").Value(); got != 60 {
		t.Fatalf("streams_closed = %d, want 60", got)
	}
	if got := reg.Counter("stream.streams_errored").Value(); got != 0 {
		t.Fatalf("streams_errored = %d, want 0", got)
	}
	if got := reg.Counter("stream.streams_dropped").Value(); got != 0 {
		t.Fatalf("streams_dropped = %d, want 0", got)
	}
}
