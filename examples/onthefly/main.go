// Onthefly: post-mortem vs on-the-fly detection (the paper's §5 trade-off).
//
// A buggy locked counter (one thread skips the lock once, so the hammered
// counter location accumulates many racing accesses) is run on weak
// hardware; the post-mortem detector and the on-the-fly vector-clock
// baseline are compared at several access-history bounds. Unbounded history matches
// the post-mortem results; shrinking the history saves memory but starts
// missing races — exactly the accuracy loss the paper attributes to
// on-the-fly methods that "keep space overhead low by only buffering
// limited trace information in memory".
//
//	go run ./examples/onthefly
package main

import (
	"fmt"
	"log"

	"weakrace"
)

func main() {
	w := weakrace.LockedCounter(3, 4, 1) // P2 skips the lock once
	fmt.Printf("workload: %s\n\n", w)

	const seeds = 25
	fmt.Printf("%-10s %-12s %-12s %-10s %s\n", "history", "otf races", "post-mortem", "missed", "comparisons")
	for _, limit := range []int{0, 4, 2, 1} {
		var otfTotal, pmTotal, missed, comparisons int
		for seed := int64(0); seed < seeds; seed++ {
			res, err := weakrace.Simulate(w.Prog, weakrace.SimConfig{
				Model: weakrace.WO, Seed: seed, InitMemory: w.InitMemory,
			})
			if err != nil {
				log.Fatal(err)
			}

			// Post-mortem: trace → happens-before-1 graph → races.
			a, err := weakrace.Detect(weakrace.TraceExecution(res.Exec), weakrace.DetectOptions{})
			if err != nil {
				log.Fatal(err)
			}
			pm := map[weakrace.LowerLevelRace]bool{}
			for ri := range a.Races {
				for _, ll := range a.LowerLevel(a.Races[ri]) {
					pm[ll.Canonical()] = true
				}
			}

			// On the fly: vector clocks + bounded history.
			otf := weakrace.DetectOnTheFly(res.Exec, weakrace.OnTheFlyOptions{HistoryLimit: limit})

			otfTotal += otf.RaceCount()
			pmTotal += len(pm)
			comparisons += otf.Comparisons
			for ll := range pm {
				if !otf.Races[ll] {
					missed++
				}
			}
		}
		name := "unbounded"
		if limit > 0 {
			name = fmt.Sprintf("%d", limit)
		}
		fmt.Printf("%-10s %-12d %-12d %-10d %d\n", name, otfTotal, pmTotal, missed, comparisons)
	}
	fmt.Println("\nmissed = post-mortem races the bounded on-the-fly detector failed to report")
}
