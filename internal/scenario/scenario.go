// Package scenario encodes the paper's canonical experimental setups: the
// 3 m × 3 m room with the 6×6 transmitter grid and Table 1 parameters, the
// three receiver placements of Table 6, the Fig. 7 instance, and the Fig. 6
// random-instance workload generator. FloorGrid scales the same geometry to
// building-size deployments (hundreds to thousands of transmitters) for the
// cell-free clustering path.
//
// Everything downstream — tests, experiments, examples, the live simulator —
// builds its environment through this package so the paper's setup exists in
// exactly one place.
package scenario

import (
	"fmt"
	"math/rand"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/led"
	"densevlc/internal/optics"
	"densevlc/internal/units"
)

// Receiver optics of Table 1 (Hamamatsu S5971 photodiode).
const (
	// PhotodiodeArea is A_pd.
	PhotodiodeArea units.SquareMeters = 1.1e-6
	// ReceiverFOV is Ψc (90°).
	ReceiverFOV units.Radians = 1.5707963267948966
)

// Setup is the physical deployment: room, transmitter grid and device
// models. Construct with Default or DefaultExperimental.
type Setup struct {
	Room geom.Room
	Grid geom.Grid
	LED  led.Model
	// Params are the link-budget constants of Eq. (12).
	Params channel.Params
	// RXPlaneZ is the height of the receiver plane: 0.8 m (table) in the
	// simulation setup of Sec. 4, 0 m (floor) in the testbed of Sec. 8.
	RXPlaneZ units.Meters
}

// Default returns the simulation setup of Sec. 4: 36 TXs in a 6×6 grid with
// 0.5 m spacing at 2.8 m height, receivers on a 0.8 m table, Table 1
// parameters.
func Default() Setup {
	m := led.CreeXTE()
	return Setup{
		Room:     geom.Room{Width: 3, Depth: 3, Height: 2.8},
		Grid:     geom.CenteredGrid(geom.Room{Width: 3, Depth: 3, Height: 2.8}, 6, 6, 0.5, 2.8),
		LED:      m,
		Params:   paperParams(m),
		RXPlaneZ: 0.8,
	}
}

// FloorGrid returns a building-scale setup: a rows × cols transmitter grid
// at the paper's 0.5 m spacing and 2.8 m mounting height, in a room sized so
// every node keeps the paper's 0.25 m wall margin, receivers on the 0.8 m
// plane, Table 1 parameters throughout. FloorGrid(6, 6) reproduces Default's
// geometry exactly; FloorGrid(32, 32) is the 1024-TX floor of the
// cluster-scaling experiment. Rows and cols must be positive.
func FloorGrid(rows, cols int) Setup {
	if rows < 1 || cols < 1 {
		//lint:ignore apipanic dimensions are programmer-chosen constants, same contract as slice sizing
		panic(fmt.Sprintf("scenario: floor grid %dx%d must be at least 1x1", rows, cols))
	}
	const spacing units.Meters = 0.5
	m := led.CreeXTE()
	room := geom.Room{
		Width:  units.Meters(float64(cols) * spacing.M()),
		Depth:  units.Meters(float64(rows) * spacing.M()),
		Height: 2.8,
	}
	return Setup{
		Room:     room,
		Grid:     geom.CenteredGrid(room, rows, cols, spacing, 2.8),
		LED:      m,
		Params:   paperParams(m),
		RXPlaneZ: 0.8,
	}
}

// UniformRXs draws m receiver xy positions uniformly over the room floor —
// the building-scale analogue of RandomInstance, whose anchors only exist on
// the 6×6 grid.
func (s Setup) UniformRXs(rng *rand.Rand, m int) []geom.Vec {
	out := make([]geom.Vec, m)
	for i := range out {
		out[i] = geom.V(rng.Float64()*s.Room.Width.M(), rng.Float64()*s.Room.Depth.M(), 0)
	}
	return out
}

// GridRXs places rows × cols receivers near the nodes of a centered grid on
// the receiver plane, each jittered by a uniform square of half-width
// jitter and clamped to the room. It is the building-scale analogue of
// RandomInstance's anchored placement: every receiver keeps a locally
// dominant transmitter, the regime where the paper's SJR ranking serves
// everyone (purely uniform placement can leave a receiver that is no
// transmitter's argmax, starving it under Algorithm 1).
func (s Setup) GridRXs(rng *rand.Rand, rows, cols int, spacing units.Meters, jitter float64) []geom.Vec {
	anchors := geom.CenteredGrid(s.Room, rows, cols, spacing, 0)
	out := make([]geom.Vec, anchors.N())
	for i := range out {
		p := anchors.Pos(i)
		x := p.X + (rng.Float64()*2-1)*jitter
		y := p.Y + (rng.Float64()*2-1)*jitter
		q := s.Room.Clamp(geom.V(x, y, s.RXPlaneZ.M()))
		out[i] = geom.V(q.X, q.Y, 0)
	}
	return out
}

// DefaultExperimental returns the testbed setup of Sec. 8: the same grid at
// 2 m height with receivers on the floor (same 2 m TX–RX plane separation
// as the simulations).
func DefaultExperimental() Setup {
	m := led.CreeXTE()
	room := geom.Room{Width: 3, Depth: 3, Height: 2}
	return Setup{
		Room:     room,
		Grid:     geom.CenteredGrid(room, 6, 6, 0.5, 2),
		LED:      m,
		Params:   paperParams(m),
		RXPlaneZ: 0,
	}
}

func paperParams(m led.Model) channel.Params {
	return channel.Params{
		NoiseDensity:       7.02e-23, // N0, A²/Hz
		Bandwidth:          1e6,      // B, Hz
		Responsivity:       0.40,     // R, A/W
		WallPlugEfficiency: m.WallPlugEfficiency,
		DynamicResistance:  m.DynamicResistance(),
	}
}

// Emitters returns the transmitter emitters for the grid.
func (s Setup) Emitters() []optics.Emitter {
	out := make([]optics.Emitter, s.Grid.N())
	for i, p := range s.Grid.Positions() {
		out[i] = optics.NewDownwardEmitter(p, s.LED.HalfPowerSemiAngle)
	}
	return out
}

// Detectors returns upward-facing receivers at the given xy positions on
// the receiver plane.
func (s Setup) Detectors(xy []geom.Vec) []optics.Detector {
	out := make([]optics.Detector, len(xy))
	for i, p := range xy {
		out[i] = optics.NewUpwardDetector(geom.V(p.X, p.Y, s.RXPlaneZ.M()), PhotodiodeArea, ReceiverFOV)
	}
	return out
}

// Env builds the allocation environment for receivers at the given xy
// positions, optionally applying a blocker when computing gains.
func (s Setup) Env(rx []geom.Vec, blocker channel.Blocker) *alloc.Env {
	h := channel.BuildMatrix(s.Emitters(), s.Detectors(rx), blocker)
	return &alloc.Env{Params: s.Params, H: h, LED: s.LED}
}

// Scenario identifies one of the Table 6 receiver placements.
type Scenario int

// The three experimental scenarios of Sec. 8.2.
const (
	// Scenario1 is interference-free with no dominating TX (2 m inter-RX
	// spacing, receivers at cell corners).
	Scenario1 Scenario = 1
	// Scenario2 has interference and no dominating TX (the Fig. 7
	// instance).
	Scenario2 Scenario = 2
	// Scenario3 has interference and a dominating TX (1 m spacing, each RX
	// exactly under a TX).
	Scenario3 Scenario = 3
)

// ParseScenario validates a user-supplied scenario number (e.g. a CLI flag)
// and returns the corresponding Scenario. It is the sanctioned way to build
// a Scenario from external input; the enum methods treat an out-of-range
// value as a programmer error.
func ParseScenario(n int) (Scenario, error) {
	sc := Scenario(n)
	switch sc {
	case Scenario1, Scenario2, Scenario3:
		return sc, nil
	}
	return 0, fmt.Errorf("scenario: unknown scenario %d (want 1, 2 or 3)", n)
}

// RXPositions returns the Table 6 receiver xy positions for the scenario.
func (sc Scenario) RXPositions() []geom.Vec {
	switch sc {
	case Scenario1:
		return []geom.Vec{
			geom.V(0.50, 0.50, 0), geom.V(2.50, 0.50, 0),
			geom.V(0.50, 2.50, 0), geom.V(2.50, 2.50, 0),
		}
	case Scenario2:
		return []geom.Vec{
			geom.V(0.92, 0.92, 0), geom.V(1.65, 0.65, 0),
			geom.V(0.72, 1.93, 0), geom.V(1.99, 1.69, 0),
		}
	case Scenario3:
		return []geom.Vec{
			geom.V(0.75, 0.75, 0), geom.V(1.75, 0.75, 0),
			geom.V(0.75, 1.75, 0), geom.V(1.75, 1.75, 0),
		}
	default:
		// External input is validated by ParseScenario; reaching this arm
		// means a caller fabricated an out-of-range constant.
		//lint:ignore apipanic enum exhaustiveness; external input goes through ParseScenario
		panic(fmt.Sprintf("scenario: unknown scenario %d", int(sc)))
	}
}

// String implements fmt.Stringer.
func (sc Scenario) String() string { return fmt.Sprintf("scenario %d", int(sc)) }

// Fig7Instance returns the receiver positions of the illustrated instance of
// Fig. 7, which the paper reuses as experimental Scenario 2.
func Fig7Instance() []geom.Vec { return Scenario2.RXPositions() }

// AnchorTXs are the transmitters the Fig. 6 receivers cluster around
// (0-based indices): TX8, TX10, TX20 and TX23 of the paper, matching the
// assignment orders reported in Sec. 4.2 (RX1's first TX is TX8, RX2's is
// TX10).
var AnchorTXs = []int{7, 9, 19, 22}

// InstanceJitter is the radius (metres) of the uniform square jitter around
// each anchor used when drawing Fig. 6 instances.
const InstanceJitter = 0.30

// RandomInstance draws one Fig. 6 instance: each receiver placed uniformly
// in a square of half-width InstanceJitter around its anchor TX's ground
// projection, clamped to the room.
func (s Setup) RandomInstance(rng *rand.Rand) []geom.Vec {
	out := make([]geom.Vec, len(AnchorTXs))
	for i, tx := range AnchorTXs {
		p := s.Grid.Pos(tx)
		x := p.X + (rng.Float64()*2-1)*InstanceJitter
		y := p.Y + (rng.Float64()*2-1)*InstanceJitter
		q := s.Room.Clamp(geom.V(x, y, s.RXPlaneZ.M()))
		out[i] = geom.V(q.X, q.Y, 0)
	}
	return out
}

// RandomInstances draws n independent Fig. 6 instances.
func (s Setup) RandomInstances(rng *rand.Rand, n int) [][]geom.Vec {
	out := make([][]geom.Vec, n)
	for i := range out {
		out[i] = s.RandomInstance(rng)
	}
	return out
}
