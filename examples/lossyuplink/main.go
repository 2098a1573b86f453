// Lossy uplink: the WiFi return channel drops a third of the receivers'
// reports and acknowledgements, and the controller's ARQ absorbs it —
// retransmitting unacknowledged frames under their original sequence
// numbers while the receivers deduplicate.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"densevlc/internal/clock"
	"densevlc/internal/mobility"
	"densevlc/internal/node"
	"densevlc/internal/scenario"
	"densevlc/internal/transport"
)

func main() {
	log.SetFlags(0)

	var traj []mobility.Trajectory
	for _, p := range scenario.Scenario3.RXPositions() {
		traj = append(traj, mobility.Static{Pos: p})
	}

	for _, loss := range []float64{0, 0.3} {
		net := transport.NewLossyNetwork(transport.NewMemNetwork(), loss, 42)
		res, err := node.RunContext(context.Background(), node.Config{
			Setup:            scenario.Default(),
			Trajectories:     traj,
			Budget:           1.19,
			Sync:             clock.MethodNLOSVLC,
			Network:          net,
			Rounds:           3,
			FramesPerRX:      4,
			MeasurementNoise: 0.02,
			Seed:             1,
			Timeout:          90 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}

		sent, acked, retried, failed := 0, 0, 0, 0
		for _, r := range res.Rounds {
			sent += r.FramesSent
			acked += r.FramesAckd
			retried += r.Retransmits
			failed += r.FramesFailed
		}
		fmt.Printf("uplink loss %3.0f%%: %2d transmissions, %2d acknowledged, %2d retries, %2d failed, %2d unique payloads delivered\n",
			100*loss, sent, acked, retried, failed, res.Delivered)
	}
	fmt.Println("\nretransmissions reuse the original sequence number, so the receivers'")
	fmt.Println("dedup window keeps application deliveries unique even when ACKs vanish.")
}
