// Quickstart: build the paper's deployment, check the illumination
// constraint, allocate a communication power budget to the beamspots, and
// print what every receiver gets.
package main

import (
	"fmt"
	"log"

	"densevlc/internal/alloc"
	"densevlc/internal/illum"
	"densevlc/internal/scenario"
	"densevlc/internal/units"
)

func main() {
	log.SetFlags(0)

	// The paper's deployment: 36 CREE XT-E LEDs in a 6×6 ceiling grid over
	// a 3 m × 3 m room, Table 1 parameters, κ = 1.3 ranking heuristic.
	set := scenario.Default()
	policy := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}

	// Illumination first: communication must not disturb it (Fig. 5). Every
	// LED runs at its bias flux whatever the allocation — the flicker-free
	// property — over the centred 2.2 m × 2.2 m area of interest.
	flux := make([]units.Lumens, set.Grid.N())
	for i := range flux {
		flux[i] = set.LED.LuminousFluxAtBias
	}
	illumMap, err := illum.Compute(illum.Config{
		Emitters: set.Emitters(),
		Flux:     flux,
		PlaneZ:   set.RXPlaneZ,
		Region:   illum.CenteredRegion(set.Room, 2.2, 2.2),
	})
	if err != nil {
		log.Fatal(err)
	}
	st := illumMap.Stats()
	fmt.Printf("illumination: %.0f lux average, %.0f%% uniformity, ISO 8995-1 ok: %v\n\n",
		st.Average, 100*st.Uniformity, st.CompliesISO8995())

	// Four receivers at the Fig. 7 positions, 1.19 W communication budget —
	// the paper's headline operating point.
	rx := scenario.Fig7Instance()
	env := set.Env(rx, nil)
	swings, err := policy.Allocate(env, 1.19)
	if err != nil {
		log.Fatal(err)
	}
	ev := alloc.Evaluate(env, swings)

	fmt.Printf("budget 1.19 W → consumed %.2f W, system throughput %.2f Mbit/s\n\n",
		ev.CommPower, ev.SumThroughput/1e6)

	for i, tp := range ev.Throughput {
		fmt.Printf("RX%d at (%.2f, %.2f): %5.2f Mbit/s (SINR %.1f) served by",
			i+1, rx[i].X, rx[i].Y, tp/1e6, ev.SINR[i])
		for j := range swings {
			if swings[j][i] > 0 {
				fmt.Printf(" TX%d(%.0fmA)", j+1, swings[j][i]*1000)
			}
		}
		fmt.Println()
	}
}
