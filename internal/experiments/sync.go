package experiments

import (
	"math"
	"math/rand"

	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/phy"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
	"densevlc/internal/vlcsync"
)

// Fig12 reproduces the synchronisation delay versus symbol rate for the
// unsynchronised and NTP/PTP baselines (Sec. 6.1), with the NLOS method
// added for comparison.
func Fig12(opts Options) Table {
	rng := stats.NewRand(opts.Seed)
	trials := opts.trials()

	rates := []units.Hertz{1e3, 2e3, 5e3, 10e3, 20e3, 40e3, 64e3}
	if opts.Quick {
		rates = []units.Hertz{1e3, 10e3, 64e3}
	}

	t := Table{
		ID:     "Fig. 12",
		Title:  "Median synchronisation delay vs symbol rate",
		Header: []string{"rate [Ksym/s]", "sync off [µs]", "NTP/PTP [µs]", "NLOS VLC [µs]"},
	}

	nlos := nlosMedian(opts, 100e3) // rate-independent: set by f_rx
	for _, rate := range rates {
		none := clock.MedianPairwiseDelay(rng, clock.MethodNone, rate, trials)
		ptp := clock.MedianPairwiseDelay(rng, clock.MethodNTPPTP, rate, trials)
		t.Rows = append(t.Rows, []string{
			f("%.0f", rate.Hz()/1e3),
			f("%.1f", none.S()*1e6),
			f("%.1f", ptp.S()*1e6),
			f("%.2f", nlos.S()*1e6),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: both baselines fall with symbol rate (the symbol-period ambiguity shrinks); NTP/PTP at least 2x better",
		f("10%%-overlap criterion: NTP/PTP supports at most %.1f Ksym/s at its ≈7 µs operating delay (paper: 14.28)",
			clock.MaxSymbolRate(7e-6, 0.1).Hz()/1e3))
	return t
}

// nlosMedian measures the NLOS method's median pairwise delay at the given
// pilot symbol rate through the waveform-level simulation.
func nlosMedian(opts Options, symbolRate units.Hertz) units.Seconds {
	session, err := vlcsync.NewSession(vlcsync.Config{
		LeaderID:   2,
		SymbolRate: symbolRate,
		SampleRate: 1e6,
		GuardTime:  50e-6,
	}, stats.NewRand(opts.Seed+1))
	if err != nil {
		return units.Seconds(math.NaN())
	}
	n := 400
	if opts.Quick {
		n = 60
	}
	a := Follower()
	b := Follower()
	delays := session.PairwiseDelays(a, b, n)
	ds := make([]float64, len(delays))
	for i, d := range delays {
		ds[i] = d.S()
	}
	return units.Seconds(stats.Median(ds))
}

// Follower builds the NLOS sync receive conditions of two neighbouring
// ceiling transmitters in the testbed geometry.
func Follower() vlcsync.Follower {
	room := geom.Room{Width: 3, Depth: 3, Height: 2}
	floor := optics.FloorReflection{Reflectivity: 0.5, Room: room, Resolution: 15}
	leader := optics.NewDownwardEmitter(geom.V(1.25, 1.25, 2), units.DegreesToRadians(15))
	det := optics.Detector{
		Pos: geom.V(1.75, 1.25, 2), Normal: geom.V(0, 0, -1),
		Area: scenario.PhotodiodeArea, FOV: scenario.ReceiverFOV, OpticsGain: 1,
	}
	gain := floor.Gain(leader, det)
	// 0.5 W optical swing amplitude, R = 0.4 A/W, ≈1 nA front-end noise.
	snr := vlcsync.SNRFromGain(gain, 0.5, 0.4, 1e-9)
	if snr > 6 {
		snr = 6 // the TIA saturates the usable SNR; cap conservatively
	}
	return vlcsync.Follower{SNR: snr, PathDelay: floor.PathDelay(leader, det)}
}

// Table4 reproduces the synchronisation-error comparison: median pairwise
// delay at f_tx = 100 Ksymbols/s for no sync, NTP/PTP and NLOS VLC.
func Table4(opts Options) Table {
	rng := stats.NewRand(opts.Seed)
	trials := opts.trials()

	none := clock.MedianPairwiseDelay(rng, clock.MethodNone, 100e3, trials)
	ptp := clock.MedianPairwiseDelay(rng, clock.MethodNTPPTP, 100e3, trials)
	nlos := nlosMedian(opts, 100e3)

	t := Table{
		ID:     "Table 4",
		Title:  "Median synchronisation error at 100 Ksymbols/s",
		Header: []string{"method", "measured [µs]", "paper [µs]"},
	}
	t.Rows = append(t.Rows,
		[]string{"no synchronization", f("%.3f", none.S()*1e6), "10.040"},
		[]string{"NTP/PTP", f("%.3f", ptp.S()*1e6), "4.565"},
		[]string{"NLOS VLC", f("%.3f", nlos.S()*1e6), "0.575"},
	)
	t.Notes = append(t.Notes, "NLOS granularity is set by the 1 µs sampling period of the follower ADCs plus correlation noise")
	return t
}

// Table5 reproduces the iperf experiment: goodput and PER for two TXs on
// one BeagleBone (no sync needed), four TXs without synchronisation, and
// four TXs with the NLOS method.
func Table5(opts Options) Table {
	frames := 100
	if opts.Quick {
		frames = 20
	}

	// The RX sits centred between TX2, TX3, TX8 and TX9 in the testbed
	// grid (2 m height): equal links to all four transmitters.
	set := scenario.DefaultExperimental()
	rx := geom.V(1.0, 0.5, 0) // centre of TX2 (0.75,0.25), TX3 (1.25,0.25), TX8 (0.75,0.75), TX9 (1.25,0.75)
	env := set.Env([]geom.Vec{rx}, nil)
	scale := set.Params.Responsivity.APerW() * set.Params.WallPlugEfficiency * set.Params.DynamicResistance.Ohms()
	amp := func(tx int) units.Amperes {
		half := set.LED.MaxSwing.A() / 2
		return units.Amperes(scale * env.H.Gain(tx, 0) * half * half)
	}
	// TX indices (0-based): TX2=1, TX3=2, TX8=7, TX9=8.
	sameBBB := []phy.TXSignal{{Amplitude: amp(1)}, {Amplitude: amp(7)}} // TX2, TX8: one BBB
	fourTXs := []units.Amperes{amp(1), amp(7), amp(2), amp(8)}          // + TX3, TX9 on another BBB

	noiseStd := units.Amperes(math.Sqrt(set.Params.NoisePower().A2()))
	run := func(seed int64, signals func(*rand.Rand) []phy.TXSignal) phy.PERResult {
		link, err := phy.NewLink(phy.Config{
			SymbolRate: 100e3, SampleRate: 1e6, NoiseStd: noiseStd,
		}, stats.NewRand(seed))
		if err != nil {
			return phy.PERResult{}
		}
		res, err := link.MeasurePER(phy.PERConfig{PayloadLen: 128, Frames: frames}, signals)
		if err != nil {
			return phy.PERResult{}
		}
		return res
	}

	r1 := run(opts.Seed+1, func(*rand.Rand) []phy.TXSignal { return sameBBB })
	txs := make([]phy.TXSignal, len(fourTXs))
	r2 := run(opts.Seed+2, func(rng *rand.Rand) []phy.TXSignal {
		// Second BBB free-runs its own frame stream; both of its TXs share
		// one clock, so one offset draw per frame.
		bbb2Offset := units.Seconds(20e-3 * rng.Float64())
		for tx, a := range fourTXs {
			if tx < 2 {
				txs[tx] = phy.TXSignal{Amplitude: a, ClockPPM: 20} // first BBB
				continue
			}
			txs[tx] = phy.TXSignal{Amplitude: a, Offset: bbb2Offset, Continuous: true, ClockPPM: -20}
		}
		return txs
	})
	r3 := run(opts.Seed+3, func(rng *rand.Rand) []phy.TXSignal {
		// NLOS-synchronised: sampling-quantisation offsets, own crystals.
		for tx, a := range fourTXs {
			txs[tx] = phy.TXSignal{Amplitude: a, Offset: units.Seconds(1.2e-6 * rng.Float64()), ClockPPM: 40*rng.Float64() - 20}
		}
		return txs
	})

	t := Table{
		ID:     "Table 5",
		Title:  f("iperf over the VLC downlink (%d frames, 128 B payload, 100 Ksym/s)", frames),
		Header: []string{"scenario", "goodput [Kbit/s]", "PER [%]", "paper [Kbit/s / %]"},
	}
	t.Rows = append(t.Rows,
		[]string{"2 TXs (one BBB)", f("%.1f", r1.Goodput.Bps()/1e3), f("%.2f", 100*r1.PER), "33.9 / 0.19"},
		[]string{"4 TXs (no sync)", f("%.1f", r2.Goodput.Bps()/1e3), f("%.2f", 100*r2.PER), "0 / 100"},
		[]string{"4 TXs (NLOS sync)", f("%.1f", r3.Goodput.Bps()/1e3), f("%.2f", 100*r3.PER), "33.8 / 0.55"},
	)
	t.Notes = append(t.Notes,
		"goodput model: payload bits over pilot+preamble+frame air time plus a 17 ms WiFi-ACK turnaround (Sec. 7.2)",
		f("frame air length for 128 B payload: %d bytes after Reed–Solomon", frame.AirLen(128)))
	return t
}
