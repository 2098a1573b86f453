package workload

import "math/rand"

// The traffic source every user runs: each epoch an idle user starts a burst
// with probability burstPOn and a bursting user goes idle with probability
// burstPOff; a bursting user demands peakFrames frames per epoch.
const (
	burstPOn   = 0.35
	burstPOff  = 0.25
	peakFrames = 8
)

// traffic is one user's bursty source: a two-state Markov chain (idle ↔
// bursting) stepped once per epoch. Single-goroutine, like the engine that
// owns it.
type traffic struct {
	rng *rand.Rand
	on  bool
}

// newTraffic starts a source in the chain's stationary draw, so a freshly
// admitted user is bursting with probability burstPOn/(burstPOn+burstPOff)
// rather than always arriving idle.
func newTraffic(rng *rand.Rand) *traffic {
	return &traffic{rng: rng, on: rng.Float64() < burstPOn/(burstPOn+burstPOff)}
}

// step advances the on/off chain by one epoch.
func (tr *traffic) step() {
	if tr.on {
		if tr.rng.Float64() < burstPOff {
			tr.on = false
		}
	} else if tr.rng.Float64() < burstPOn {
		tr.on = true
	}
}

// frames is the user's demand for the epoch: zero while idle, peakFrames
// while bursting.
func (tr *traffic) frames() int {
	if !tr.on {
		return 0
	}
	return peakFrames
}
