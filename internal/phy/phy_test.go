package phy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/dsp"
	"densevlc/internal/frame"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// paperLink builds the Table 5 link: 100 Ksymbols/s OOK, 1 Msps ADC, noise
// sqrt(N0·B) with Table 1's N0 and B = 1 MHz.
func paperLink(t testing.TB, seed int64) *Link {
	t.Helper()
	l, err := NewLink(Config{
		SymbolRate: 100e3,
		SampleRate: 1e6,
		NoiseStd:   units.Amperes(math.Sqrt(7.02e-23 * 1e6)),
		FrontEnd:   false, // enabled selectively; filters add group delay
		ADCBits:    0,
	}, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// strongAmplitude is the received amplitude of a nearby full-swing TX:
// R·η·r·(0.45)²·H with H ≈ 9.2e-7 → ≈1.1e-8 A, comfortably above the
// 8.4e-9 A noise std.
const strongAmplitude = 1.1e-8

func TestConfigValidate(t *testing.T) {
	good := Config{SymbolRate: 1e5, SampleRate: 1e6}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SymbolRate: 0, SampleRate: 1e6},
		{SymbolRate: 1e6, SampleRate: 1e6},
		{SymbolRate: 1e5, SampleRate: 1e6, NoiseStd: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewLink(c, stats.NewRand(1)); err == nil {
			t.Errorf("NewLink accepted bad config %d", i)
		}
	}
}

func TestSingleTXRoundTrip(t *testing.T) {
	l := paperLink(t, 1)
	mac := frame.MAC{Dst: 1, Src: 2, Protocol: 3, Payload: []byte("visible light payload")}
	got, corrected, err := l.TransmitReceive(mac, []TXSignal{{Amplitude: strongAmplitude}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, mac.Payload) || got.Dst != 1 || got.Src != 2 {
		t.Errorf("frame mismatch: %+v", got)
	}
	_ = corrected // a few RS corrections are fine at this SNR
}

func TestTwoAlignedTXsCombineCoherently(t *testing.T) {
	// Table 5 row 1: two TXs on the same BeagleBone — no offset — decode
	// cleanly, and the combined signal must outperform a single TX at
	// half the amplitude margin.
	l := paperLink(t, 2)
	mac := frame.MAC{Dst: 1, Src: 2, Payload: make([]byte, 64)}
	txs := []TXSignal{
		{Amplitude: strongAmplitude / 2},
		{Amplitude: strongAmplitude / 2},
	}
	failures := 0
	for i := 0; i < 20; i++ {
		got, _, err := l.TransmitReceive(mac, txs)
		if err != nil || !bytes.Equal(got.Payload, mac.Payload) {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/20 failures with two aligned TXs", failures)
	}
}

func TestMisalignedTXsDestroyFrame(t *testing.T) {
	// Table 5 row 2: two BeagleBones without synchronisation. The second
	// board starts whenever its own processing finishes — frames misalign
	// by hundreds of µs ("improper alignment of the frames in time") and
	// the equal-power overlap destroys decoding: PER ≈ 100%.
	l := paperLink(t, 3)
	rng := stats.NewRand(33)
	payload := make([]byte, 64)
	rng.Read(payload)
	mac := frame.MAC{Dst: 1, Src: 2, Payload: payload}
	successes := 0
	for i := 0; i < 20; i++ {
		txs := []TXSignal{
			{Amplitude: strongAmplitude / 2, Offset: 0, ClockPPM: 10},
			{Amplitude: strongAmplitude / 2, Offset: units.Seconds(20e-3 * rng.Float64()), Continuous: true, ClockPPM: -15},
		}
		got, _, err := l.TransmitReceive(mac, txs)
		if err == nil && bytes.Equal(got.Payload, mac.Payload) {
			successes++
		}
	}
	if successes > 1 {
		t.Errorf("%d/20 frames survived gross misalignment; paper reports 100%% PER", successes)
	}
}

func TestNLOSSyncOffsetsTolerated(t *testing.T) {
	// Table 5 row 3: NLOS-synchronised TXs (≈0.6 µs offset, ~12% of a
	// chip) decode with very low loss.
	l := paperLink(t, 4)
	mac := frame.MAC{Dst: 1, Src: 2, Payload: make([]byte, 64)}
	rng := stats.NewRand(44)
	failures := 0
	for i := 0; i < 20; i++ {
		txs := []TXSignal{
			{Amplitude: strongAmplitude / 2, Offset: 0},
			{Amplitude: strongAmplitude / 2, Offset: units.Seconds(0.6e-6 * rng.Float64())},
		}
		got, _, err := l.TransmitReceive(mac, txs)
		if err != nil || !bytes.Equal(got.Payload, mac.Payload) {
			failures++
		}
	}
	if failures > 2 {
		t.Errorf("%d/20 failures with sync offsets", failures)
	}
}

func TestReceiveNoSignal(t *testing.T) {
	l := paperLink(t, 5)
	noise := make([]float64, 4000)
	rng := stats.NewRand(6)
	for i := range noise {
		noise[i] = 8.4e-9 * rng.NormFloat64()
	}
	if _, _, err := l.Receive(noise, 32); err == nil {
		t.Error("pure noise decoded as a frame")
	}
}

func TestFrontEndChainStillDecodes(t *testing.T) {
	cfg := Config{
		SymbolRate: 100e3, SampleRate: 1e6,
		NoiseStd: units.Amperes(math.Sqrt(7.02e-23 * 1e6)),
		FrontEnd: true, ADCBits: 12,
	}
	l, err := NewLink(cfg, stats.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	mac := frame.MAC{Dst: 1, Src: 2, Payload: []byte("through the analog front-end")}
	failures := 0
	for i := 0; i < 10; i++ {
		got, _, err := l.TransmitReceive(mac, []TXSignal{{Amplitude: strongAmplitude}})
		if err != nil || !bytes.Equal(got.Payload, mac.Payload) {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/10 failures through the front-end chain", failures)
	}
}

func TestMeasurePERTable5Shape(t *testing.T) {
	// The three Table 5 rows in one harness. Absolute PERs depend on the
	// noise draw; the ordering and the collapse without sync must hold.
	amp2 := []TXSignal{{Amplitude: strongAmplitude / 2}, {Amplitude: strongAmplitude / 2}}
	const amp4 = strongAmplitude / 3
	txs := make([]TXSignal, 4)

	l := paperLink(t, 8)
	sameBBB, err := l.MeasurePER(PERConfig{PayloadLen: 64, Frames: 40},
		func(*rand.Rand) []TXSignal { return amp2 })
	if err != nil {
		t.Fatal(err)
	}

	l = paperLink(t, 9)
	noSync, err := l.MeasurePER(PERConfig{PayloadLen: 64, Frames: 40},
		func(rng *rand.Rand) []TXSignal {
			// Second BBB free-runs its own frame stream: both of its TXs
			// share one clock, so one offset draw per frame.
			bbb2Offset := units.Seconds(20e-3 * rng.Float64())
			for tx := range txs {
				if tx < 2 {
					txs[tx] = TXSignal{Amplitude: amp4, ClockPPM: 10} // first BBB's pair
					continue
				}
				txs[tx] = TXSignal{Amplitude: amp4, Offset: bbb2Offset, Continuous: true, ClockPPM: -15}
			}
			return txs
		})
	if err != nil {
		t.Fatal(err)
	}

	l = paperLink(t, 10)
	withSync, err := l.MeasurePER(PERConfig{PayloadLen: 64, Frames: 40},
		func(rng *rand.Rand) []TXSignal {
			for tx := range txs {
				txs[tx] = TXSignal{Amplitude: amp4, Offset: units.Seconds(1.2e-6 * rng.Float64()), ClockPPM: 40*rng.Float64() - 20}
			}
			return txs
		})
	if err != nil {
		t.Fatal(err)
	}

	if sameBBB.PER > 0.1 {
		t.Errorf("same-BBB PER = %v, paper reports 0.19%%", sameBBB.PER)
	}
	if noSync.PER < 0.9 {
		t.Errorf("no-sync PER = %v, paper reports 100%%", noSync.PER)
	}
	if withSync.PER > 0.15 {
		t.Errorf("with-sync PER = %v, paper reports 0.55%%", withSync.PER)
	}
	if noSync.Goodput > 0.2*sameBBB.Goodput {
		t.Errorf("no-sync goodput %v should collapse vs %v", noSync.Goodput, sameBBB.Goodput)
	}
	// Goodput scale: tens of kbit/s, as in Table 5 (33.9 Kbit/s).
	if sameBBB.Goodput < 15e3 || sameBBB.Goodput > 60e3 {
		t.Errorf("goodput = %v bit/s, want tens of kbit/s", sameBBB.Goodput)
	}
}

func TestMeasurePERRejectsEmptyRun(t *testing.T) {
	l := paperLink(t, 11)
	one := func(*rand.Rand) []TXSignal { return []TXSignal{{Amplitude: strongAmplitude}} }
	for _, cfg := range []PERConfig{{Frames: 2}, {PayloadLen: 64}, {PayloadLen: -1, Frames: 2}, {PayloadLen: 64, Frames: -1}} {
		if _, err := l.MeasurePER(cfg, one); err == nil {
			t.Errorf("MeasurePER(%+v) accepted a non-positive count", cfg)
		}
	}
}

func TestTransmitRejectsOversizedFrame(t *testing.T) {
	l := paperLink(t, 12)
	mac := frame.MAC{Payload: make([]byte, frame.MaxPayload+1)}
	if _, _, err := l.Transmit(mac, nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFrontEndPowerConstants(t *testing.T) {
	// Sec. 7.1's measurements; the communication overhead they imply
	// (530 mW at full swing) is the per-TX cost the allocator budgets
	// (74.42 mW is the LED-only share; the driver adds the rest).
	if FrontEndPowerIllum != 2.51 || FrontEndPowerComm != 3.04 {
		t.Error("prototype power constants changed")
	}
}

func TestAnalyticPERMatchesWaveform(t *testing.T) {
	// The closed-form PER model (channel.FramePER) must track the
	// waveform-level measurement across the SINR transition region.
	noise := math.Sqrt(7.02e-23 * 1e6)
	const bt = 5 // 1 MHz noise bandwidth × 5 µs chips
	for _, sinr := range []float64{0.5, 1.5, 3, 6, 12} {
		amp := math.Sqrt(sinr) * noise
		l, err := NewLink(Config{SymbolRate: 100e3, SampleRate: 1e6, NoiseStd: units.Amperes(noise)},
			stats.NewRand(int64(100*sinr)))
		if err != nil {
			t.Fatal(err)
		}
		one := []TXSignal{{Amplitude: units.Amperes(amp)}}
		res, err := l.MeasurePER(PERConfig{PayloadLen: 64, Frames: 60}, func(*rand.Rand) []TXSignal { return one })
		if err != nil {
			t.Fatal(err)
		}
		analytic := 1.0
		{
			// Import cycle avoidance: channel does not import phy, so the
			// analytic model is callable from here.
			analytic = channelFramePER(sinr, 64, bt)
		}
		if math.Abs(res.PER-analytic) > 0.25 {
			t.Errorf("SINR %v: waveform PER %.2f vs analytic %.2f", sinr, res.PER, analytic)
		}
	}
}

// channelFramePER forwards to the analytic model.
func channelFramePER(sinr float64, payload int, bt float64) float64 {
	return channel.FramePER(sinr, payload, bt)
}

// refTransmit is the sample-outer synthesis Link.Transmit replaced: for
// each sample it sums the transmitters in input order and adds that
// sample's noise draw. Transmit must produce the same stream bit for bit.
func refTransmit(l *Link, mac frame.MAC, txs []TXSignal) ([]float64, int, error) {
	chips, rawLen, err := airChips(mac)
	if err != nil {
		return nil, 0, err
	}
	lead := 24 * l.chipDur
	maxOff := 0.0
	for _, tx := range txs {
		if !tx.Continuous && tx.Offset.S() > maxOff {
			maxOff = tx.Offset.S()
		}
	}
	dur := lead + float64(len(chips))*l.chipDur + maxOff + 8*l.chipDur
	n := int(dur * l.cfg.SampleRate.Hz())

	phase := l.rng.Float64() / l.cfg.SampleRate.Hz()
	samples := make([]float64, n)
	for k := range samples {
		t := phase + float64(k)/l.cfg.SampleRate.Hz()
		v := 0.0
		for _, tx := range txs {
			ct := t - lead - tx.Offset.S()
			chipDur := l.chipDur * (1 + tx.ClockPPM*1e-6)
			if tx.Continuous {
				idx := int(math.Floor(ct/chipDur)) % len(chips)
				if idx < 0 {
					idx += len(chips)
				}
				v += tx.Amplitude.A() * chips[idx]
				continue
			}
			if ct < 0 {
				continue
			}
			idx := int(ct / chipDur)
			if idx < len(chips) {
				v += tx.Amplitude.A() * chips[idx]
			}
		}
		if l.cfg.NoiseStd > 0 {
			v += l.cfg.NoiseStd.A() * l.rng.NormFloat64()
		}
		samples[k] = v
	}

	if l.cfg.FrontEnd {
		ac := dsp.NewACCoupler(1e3, l.cfg.SampleRate.Hz())
		lp, err := dsp.ButterworthLowpass(7, 0.4*l.cfg.SampleRate.Hz(), l.cfg.SampleRate.Hz())
		if err != nil {
			return nil, 0, err
		}
		for i, s := range samples {
			samples[i] = lp.Process(ac.Process(s))
		}
	}
	if l.cfg.ADCBits > 0 {
		fs := 4 * aggregateAmplitude(txs)
		if fs <= 0 {
			fs = 4 * l.cfg.NoiseStd.A()
		}
		adc := dsp.ADC{Bits: l.cfg.ADCBits, FullScale: fs}
		for i, s := range samples {
			samples[i] = adc.Quantize(s)
		}
	}
	return samples, rawLen, nil
}

// randomTXSet draws 1–16 transmitters mixing frame-aligned and continuous
// (free-running) ones. Offsets are zero, within the NLOS sync error, early,
// up to a free-running board's 10 ms, or past the capture: a frame that
// ended 20–40 ms before it opens, or a free-running stream whose chip count
// starts 0.5–1 s after it. Clock errors are zero or within ±20 ppm. The
// first draws pin the extremes.
func randomTXSet(rng *rand.Rand) []TXSignal {
	txs := make([]TXSignal, 1+rng.Intn(16))
	for i := range txs {
		tx := TXSignal{
			Amplitude:  units.Amperes(strongAmplitude * (0.05 + rng.Float64())),
			Continuous: rng.Intn(2) == 0,
		}
		if rng.Intn(4) > 0 {
			tx.ClockPPM = 40*rng.Float64() - 20
		}
		switch rng.Intn(6) {
		case 0: // perfectly aligned
		case 1: // aligned within the NLOS sync error
			tx.Offset = units.Seconds(1.2e-6 * rng.Float64())
		case 2: // starts early
			tx.Offset = units.Seconds(-50e-6 * rng.Float64())
		case 3: // up to a free-running board's 10 ms
			tx.Offset = units.Seconds(10e-3 * rng.Float64())
		case 4: // over before the capture opens
			tx.Offset = units.Seconds(-20e-3 * (1 + rng.Float64()))
		case 5: // a stream offset past the capture's end (an aligned frame
			// this late would stretch the capture instead)
			tx.Continuous = true
			tx.Offset = units.Seconds(0.5 + 0.5*rng.Float64())
		}
		switch i {
		case 0:
			tx.ClockPPM = 20
		case 1:
			tx.ClockPPM = -20
		case 2:
			tx.Offset = 10e-3
		}
		txs[i] = tx
	}
	return txs
}

// transmitMismatch runs Link.Transmit and refTransmit on two links seeded
// alike and describes the first difference: an error, the frame length, a
// sample's bits, or where the two RNGs were left. It returns nil when there
// is none.
func transmitMismatch(cfg Config, seed int64, mac frame.MAC, txs []TXSignal) error {
	got, err := NewLink(cfg, stats.NewRand(seed))
	if err != nil {
		return err
	}
	want, err := NewLink(cfg, stats.NewRand(seed))
	if err != nil {
		return err
	}
	gs, gLen, gErr := got.Transmit(mac, txs)
	ws, wLen, wErr := refTransmit(want, mac, txs)
	if gErr != nil || wErr != nil {
		return fmt.Errorf("Transmit err %v, reference err %v", gErr, wErr)
	}
	if gLen != wLen || len(gs) != len(ws) {
		return fmt.Errorf("rawLen %d / %d samples, reference %d / %d", gLen, len(gs), wLen, len(ws))
	}
	for k := range ws {
		if math.Float64bits(gs[k]) != math.Float64bits(ws[k]) {
			return fmt.Errorf("%+v, %d TXs: sample %d = %v, reference %v", cfg, len(txs), k, gs[k], ws[k])
		}
	}
	if got.rng.Int63() != want.rng.Int63() {
		return errors.New("RNG streams diverged")
	}
	return nil
}

func TestTransmitMatchesReference(t *testing.T) {
	noise := units.Amperes(math.Sqrt(7.02e-23 * 1e6))
	rng := stats.NewRand(15)
	for c := 0; c < 1000; c++ {
		// The low three bits of c switch noise, the front end and the ADC
		// independently, so every combination occurs.
		cfg := Config{SymbolRate: 100e3, SampleRate: 1e6}
		if c&1 != 0 {
			cfg.NoiseStd = noise
		}
		cfg.FrontEnd = c&2 != 0
		if c&4 != 0 {
			cfg.ADCBits = 12
		}
		mac := frame.MAC{Dst: 1, Src: 2, Payload: make([]byte, rng.Intn(48))}
		rng.Read(mac.Payload)
		txs := randomTXSet(rng)
		if err := transmitMismatch(cfg, rng.Int63(), mac, txs); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
	}
}

// TestTransmitChipBoundaries pins the per-sample chip time to the
// reference expression ((phase + k/fs) − lead) − off to the last bit.
// Random offsets never put a sample on a chip boundary, so a one-ulp change
// of that expression (a reassociation, say) passes the random cases. Here
// each planted transmitter puts sample k exactly on one: its offset is the
// largest whose chip time ct still indexes chip q, and a second
// transmitter's is the next float up, whose ct indexes chip q−1. Chips
// q−1 and q differ (q is odd, inside one Manchester bit), so moving ct by
// an ulp either way flips one transmitter's chip at sample k. ct ≤ t/2
// keeps t − off exact (Sterbenz), so one ulp of t moves ct by at least the
// step between the two planted ct values. A third, frame-aligned
// transmitter has ct exactly 0 at sample k, the first sample its frame
// covers.
func TestTransmitChipBoundaries(t *testing.T) {
	cfg := Config{SymbolRate: 100e3, SampleRate: 1e6}
	mac := frame.MAC{Dst: 1, Src: 2, Payload: []byte("chip boundaries")}
	chips, _, err := airChips(mac)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		l, err := NewLink(cfg, stats.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		fs := cfg.SampleRate.Hz()
		phase := stats.NewRand(seed).Float64() / fs // Transmit's first draw
		lead := 24 * l.chipDur
		var txs []TXSignal
		for k := 300; k < 300+16*37; k += 37 {
			tk := phase + float64(k)/fs - lead
			q := int(tk / 2 / l.chipDur)
			if q%2 == 0 {
				q--
			}
			if chips[q-1] == chips[q] {
				t.Fatalf("chips %d and %d are equal", q-1, q)
			}
			below := func(off float64) bool { return int((tk-off)/l.chipDur) < q }
			off := tk - float64(q)*l.chipDur
			for below(off) {
				off = math.Nextafter(off, math.Inf(-1))
			}
			for !below(math.Nextafter(off, math.Inf(1))) {
				off = math.Nextafter(off, math.Inf(1))
			}
			amp := units.Amperes(strongAmplitude)
			txs = append(txs,
				TXSignal{Amplitude: amp, Offset: units.Seconds(off), Continuous: k%2 == 0},
				TXSignal{Amplitude: amp, Offset: units.Seconds(math.Nextafter(off, math.Inf(1))), Continuous: k%2 != 0},
				TXSignal{Amplitude: amp, Offset: units.Seconds(tk)})
		}
		if err := transmitMismatch(cfg, seed, mac, txs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzTransmitMatchesReference decodes raw bytes into up to 16
// transmitters, 7 bytes each: amplitude (1 byte, up to strongAmplitude),
// flags (bit 0: continuous), clock error (a signed byte in quarter ppm) and
// offset (a signed 32-bit count of 10 ps, ±21 ms). cfg switches noise
// (bit 0) and the front end (bit 1) and sets the ADC resolution (cfg>>2
// mod 17, 0 for none). Every value is finite and bounded, so the capture
// stays under 50k samples. Transmit must match refTransmit bit for bit.
func FuzzTransmitMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(15), []byte{255, 0, 0, 0, 0, 0, 0})
	f.Add(int64(2), uint8(3|12<<2), uint8(0), []byte{
		200, 0, 80, 0x10, 0x27, 0, 0, // aligned, +20 ppm, 100 ns late
		40, 1, 0xb0, 0x80, 0x96, 0x98, 0, // continuous, −20 ppm, 100 µs late
		90, 0, 0, 0x00, 0x1f, 0x0a, 0xfa, // aligned, 0 ppm, 1 ms early
	})
	f.Fuzz(func(t *testing.T, seed int64, cfgBits, payloadLen uint8, raw []byte) {
		cfg := Config{SymbolRate: 100e3, SampleRate: 1e6, FrontEnd: cfgBits&2 != 0, ADCBits: int(cfgBits>>2) % 17}
		if cfgBits&1 != 0 {
			cfg.NoiseStd = units.Amperes(math.Sqrt(7.02e-23 * 1e6))
		}
		txs := make([]TXSignal, min(len(raw)/7, 16))
		for i := range txs {
			b := raw[7*i:]
			txs[i] = TXSignal{
				Amplitude:  units.Amperes(strongAmplitude * float64(b[0]) / 255),
				Continuous: b[1]&1 != 0,
				ClockPPM:   float64(int8(b[2])) / 4,
				Offset:     units.Seconds(float64(int32(binary.LittleEndian.Uint32(b[3:]))) * 1e-11),
			}
		}
		mac := frame.MAC{Dst: 1, Src: 2, Payload: bytes.Repeat([]byte{payloadLen}, int(payloadLen)%64)}
		if err := transmitMismatch(cfg, seed, mac, txs); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReceiveRejectsNonFiniteCapture(t *testing.T) {
	// A NaN amplitude leaves no window with usable energy; a +Inf one makes
	// the correlation NaN from lag 0 on. Neither may pass as a preamble.
	mac := frame.MAC{Dst: 1, Src: 2, Payload: []byte("non-finite light")}
	for _, amp := range []float64{math.NaN(), math.Inf(1)} {
		l := paperLink(t, 13)
		_, _, err := l.TransmitReceive(mac, []TXSignal{{Amplitude: units.Amperes(amp)}})
		if !errors.Is(err, ErrNoPreamble) {
			t.Errorf("amplitude %v: err = %v, want ErrNoPreamble", amp, err)
		}
	}
}

// BenchmarkLinkTransmitReceive runs room-async's frame shape through the
// link: a four-TX beamspot, aligned within the NLOS sync error, under
// twelve free-running interferers from the other beamspots, captured as
// ≈3600 samples at 1 Msps.
func BenchmarkLinkTransmitReceive(b *testing.B) {
	rng := stats.NewRand(1)
	var txs []TXSignal
	for i := 0; i < 16; i++ {
		tx := TXSignal{
			Amplitude: units.Amperes(strongAmplitude / 2 * (0.5 + rng.Float64())),
			Offset:    units.Seconds(1.2e-6 * rng.Float64()),
			ClockPPM:  40*rng.Float64() - 20,
		}
		if i >= 4 {
			tx.Amplitude /= 8
			tx.Offset = units.Seconds(10e-3 * rng.Float64())
			tx.Continuous = true
		}
		txs = append(txs, tx)
	}
	mac := frame.MAC{Dst: 1, Src: 2, Payload: make([]byte, 15)}
	l := paperLink(b, 2)
	if _, _, err := l.TransmitReceive(mac, txs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TransmitReceive(mac, txs)
	}
}
