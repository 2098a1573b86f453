package dsp_test

import (
	"math"
	"testing"

	"densevlc/internal/dsp"
	"densevlc/internal/frame"
	"densevlc/internal/phy"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// TestScreenTakesShippedTemplates runs the screened search alone on the two
// templates the system correlates against: the receiver's preamble at 5
// samples per chip (phy.Link.Receive at 100 Ksym/s and 1 Msps) and the
// NLOS sync pilot template, built as vlcsync.NewSession builds it at the
// same rates. Each must be screened, never sent to the full scan: a silent
// fallback would still return the reference's peak, so every bit-identity
// test would pass while the gain was lost.
func TestScreenTakesShippedTemplates(t *testing.T) {
	const spc = 5

	// A frame captured as room-async captures one: a four-TX beamspot
	// aligned within the NLOS sync error under twelve free-running
	// interferers, through phy.Link.Transmit.
	rng := stats.NewRand(1)
	var txs []phy.TXSignal
	for i := 0; i < 16; i++ {
		tx := phy.TXSignal{
			Amplitude: units.Amperes(5.5e-9 * (0.5 + rng.Float64())),
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
	link, err := phy.NewLink(phy.Config{
		SymbolRate: 100e3,
		SampleRate: 1e6,
		NoiseStd:   units.Amperes(math.Sqrt(7.02e-23 * 1e6)),
	}, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	frameCapture, _, err := link.Transmit(frame.MAC{Dst: 1, Src: 2, Payload: make([]byte, 15)}, txs)
	if err != nil {
		t.Fatal(err)
	}

	// A follower's pilot capture as vlcsync.Session.Synchronize samples
	// it: 16 silent chips, the pilot with the leader's ID, 8 chips of
	// tail, unit noise, at a weak and a strong floor-reflection SNR.
	pilotCapture := func(snr float64, seed int64) []float64 {
		rng := stats.NewRand(seed)
		chips := frame.PilotChips(2)
		s := make([]float64, (16+len(chips)+8)*spc)
		for k := range s {
			if c := k/spc - 16; c >= 0 && c < len(chips) {
				s[k] = snr * chips[c]
			}
			s[k] += rng.NormFloat64()
		}
		return s
	}

	for _, c := range []struct {
		name             string
		signal, template []float64
	}{
		{"receiver preamble", frameCapture, dsp.Upsample(frame.PreambleChips(), spc)},
		{"sync pilot, SNR 0.5", pilotCapture(0.5, 3), dsp.Upsample(frame.PilotTemplate(), spc)},
		{"sync pilot, SNR 5", pilotCapture(5, 4), dsp.Upsample(frame.PilotTemplate(), spc)},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, v, cands, ok := dsp.ScreenedPeak(c.signal, c.template)
			if !ok {
				t.Fatalf("%d-sample template on %d samples fell back to the full scan", len(c.template), len(c.signal))
			}
			wantK, wantV := dsp.FindPeak(dsp.CrossCorrelate(c.signal, c.template))
			if k != wantK || math.Float64bits(v) != math.Float64bits(wantV) {
				t.Fatalf("screened peak (%d, %v), reference (%d, %v)", k, v, wantK, wantV)
			}
			t.Logf("%d lags, %d correlated exactly; peak %.3f at lag %d",
				len(c.signal)-len(c.template)+1, cands, v, k)
			if cands < 1 {
				t.Errorf("%d candidates: the exact pass never ran", cands)
			}
		})
	}
}
