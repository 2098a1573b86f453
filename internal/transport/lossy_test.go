package transport

import (
	"math"
	"testing"

	"densevlc/internal/stats"
	"densevlc/internal/testutil"
)

// drawDrops advances one link's gate n frames and returns the drop mask.
func drawDrops(loss float64, seed int64, n int) []bool {
	g := &dropGate{rng: stats.NewRand(seed), loss: loss}
	out := make([]bool, n)
	for i := range out {
		out[i] = g.drop()
	}
	return out
}

// TestDropGateMeanLoss pins the empirical loss rate of one link's gate
// against its drop probability, including the lossless case.
func TestDropGateMeanLoss(t *testing.T) {
	const n = 200000
	for _, c := range []struct {
		loss float64
		seed int64
	}{{0.3, 103}, {0, 104}} {
		drops := 0
		for _, d := range drawDrops(c.loss, c.seed, n) {
			if d {
				drops++
			}
		}
		// Binomial std at n=200k is < 0.12%.
		if got := float64(drops) / n; math.Abs(got-c.loss) > 0.01 {
			t.Errorf("loss %.2f: empirical loss %.4f", c.loss, got)
		}
	}
}

// TestDropGateDeterministicPerSeed pins the gate's reproducibility: the
// same seed yields the same drop mask, different seeds differ.
func TestDropGateDeterministicPerSeed(t *testing.T) {
	a := drawDrops(0.3, 7, 5000)
	b := drawDrops(0.3, 7, 5000)
	c := drawDrops(0.3, 8, 5000)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different drop masks")
	}
	if !diff {
		t.Error("different seeds produced identical drop masks")
	}
}

// TestLossyNetworkPerLinkStreams checks that each registered link gets its
// own stream in registration order: the first receiver's drops are
// unchanged by whether a transmitter and a second receiver register after
// it.
func TestLossyNetworkPerLinkStreams(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	drops := func(extraLinks bool) []bool {
		mem := NewMemNetwork()
		net := NewLossyNetwork(mem, 0.5, 9)
		defer net.Close()
		n1, err := net.NewNode()
		if err != nil {
			t.Fatal(err)
		}
		if extraLinks {
			if _, err := net.NewTX(); err != nil {
				t.Fatal(err)
			}
			if _, err := net.NewNode(); err != nil {
				t.Fatal(err)
			}
		}
		mask := make([]bool, 64)
		for i := range mask {
			if err := n1.SendUplink([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			// A surviving frame sits in the in-memory queue at once.
			mask[i] = len(mem.uplink) == 0
			if !mask[i] {
				if _, err := net.Controller().Receive(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return mask
	}
	a, b := drops(false), drops(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: registering more links perturbed the first receiver's uplink drops", i)
		}
	}
}
