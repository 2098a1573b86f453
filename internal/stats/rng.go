package stats

import "math/rand"

// NewRand returns a deterministic random source for the given seed.
// All stochastic components in DenseVLC accept a *rand.Rand so experiments
// regenerate identically run-to-run; this constructor centralises the choice
// of generator.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitRand derives an independent stream from a parent source. Entities in
// the simulator (each TX clock, each RX noise process) get their own stream
// so that adding an entity does not perturb the random numbers other
// entities observe.
func SplitRand(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}
