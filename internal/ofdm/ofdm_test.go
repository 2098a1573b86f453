package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"densevlc/internal/stats"
)

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := DFTNaive(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-10 {
			t.Fatalf("round trip broke at %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 64)
	var et float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	y := append([]complex128(nil), x...)
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	var ef float64
	for _, v := range y {
		ef += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(ef/float64(len(x))-et) > 1e-9*et {
		t.Errorf("Parseval violated: %v vs %v", ef/64, et)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Error("length 3 accepted")
	}
	if err := FFT(nil); err != nil {
		t.Error("empty FFT should be a no-op")
	}
}

func TestQAMRoundTripAllConstellations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bps := range []int{2, 4, 6} {
		q, err := NewQAM(bps)
		if err != nil {
			t.Fatal(err)
		}
		bitstream := make([]byte, 600*bps)
		for i := range bitstream {
			bitstream[i] = byte(rng.Intn(2))
		}
		syms, err := q.Modulate(bitstream)
		if err != nil {
			t.Fatal(err)
		}
		got := q.Demodulate(syms)
		for i := range bitstream {
			if got[i] != bitstream[i] {
				t.Fatalf("%d-QAM bit %d flipped noise-free", 1<<bps, i)
			}
		}
		// Unit average energy.
		var e float64
		for _, s := range syms {
			e += real(s)*real(s) + imag(s)*imag(s)
		}
		e /= float64(len(syms))
		if math.Abs(e-1) > 0.05 {
			t.Errorf("%d-QAM average energy %v", 1<<bps, e)
		}
	}
}

func TestQAMRejections(t *testing.T) {
	if _, err := NewQAM(3); err == nil {
		t.Error("odd bit count accepted")
	}
	if _, err := NewQAM(0); err == nil {
		t.Error("zero bit count accepted")
	}
	q, _ := NewQAM(4)
	if _, err := q.Modulate(make([]byte, 5)); err != ErrBitCount {
		t.Errorf("err = %v", err)
	}
}

func TestQAMGrayNeighbours(t *testing.T) {
	// Gray mapping: adjacent constellation levels differ in one bit.
	q, _ := NewQAM(4)
	for idx := 0; idx < q.side-1; idx++ {
		a := gray(idx)
		b := gray(idx + 1)
		diff := a ^ b
		if diff&(diff-1) != 0 {
			t.Errorf("levels %d and %d differ in >1 bit", idx, idx+1)
		}
	}
}

func TestModemValidate(t *testing.T) {
	q, _ := NewQAM(4)
	good := &Modem{N: 64, CP: 8, QAM: q}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Modem{
		{N: 3, CP: 0, QAM: q},
		{N: 64, CP: -1, QAM: q},
		{N: 64, CP: 64, QAM: q},
		{N: 64, CP: 0, QAM: nil},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad modem %d accepted", i)
		}
	}
}

func TestModemWaveformNonNegative(t *testing.T) {
	// Intensity modulation cannot go dark-negative: every sample ≥ 0.
	q, _ := NewQAM(4)
	m := &Modem{N: 64, CP: 8, QAM: q}
	rng := stats.NewRand(5)
	bitstream := make([]byte, 4*m.BitsPerSymbol())
	for i := range bitstream {
		bitstream[i] = byte(rng.Intn(2))
	}
	wave, err := m.Modulate(bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != 4*(64+8) {
		t.Fatalf("waveform length %d", len(wave))
	}
	for i, v := range wave {
		if v < 0 {
			t.Fatalf("negative intensity at %d: %v", i, v)
		}
	}
}

func TestModemRoundTripNoiseFree(t *testing.T) {
	rng := stats.NewRand(6)
	for _, bps := range []int{2, 4, 6} {
		q, _ := NewQAM(bps)
		m := &Modem{N: 128, CP: 16, QAM: q}
		nbits := 6 * m.BitsPerSymbol()
		bitstream := make([]byte, nbits)
		for i := range bitstream {
			bitstream[i] = byte(rng.Intn(2))
		}
		wave, err := m.Modulate(bitstream)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Demodulate(wave, 1, nbits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bitstream {
			if got[i] != bitstream[i] {
				t.Fatalf("%d-QAM: bit %d flipped noise-free (clipping too aggressive?)", 1<<bps, i)
			}
		}
	}
}

func TestModemChannelGainEqualised(t *testing.T) {
	q, _ := NewQAM(4)
	m := &Modem{N: 64, CP: 8, QAM: q}
	rng := stats.NewRand(7)
	nbits := 2 * m.BitsPerSymbol()
	bitstream := make([]byte, nbits)
	for i := range bitstream {
		bitstream[i] = byte(rng.Intn(2))
	}
	wave, _ := m.Modulate(bitstream)
	attenuated := make([]float64, len(wave))
	for i, v := range wave {
		attenuated[i] = v * 1e-6 // optical path loss
	}
	got, err := m.Demodulate(attenuated, 1e-6, nbits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bitstream {
		if got[i] != bitstream[i] {
			t.Fatal("equalisation failed")
		}
	}
	if _, err := m.Demodulate(attenuated, 0, nbits); err == nil {
		t.Error("zero gain accepted")
	}
}

func TestModemErrors(t *testing.T) {
	q, _ := NewQAM(4)
	m := &Modem{N: 64, CP: 8, QAM: q}
	if _, err := m.Modulate(make([]byte, 7)); err == nil {
		t.Error("ragged bit count accepted")
	}
	if _, err := m.Demodulate(make([]float64, 71), 1, 10); err == nil {
		t.Error("ragged waveform accepted")
	}
	if _, err := m.Demodulate(make([]float64, 72), 1, 1e6); err == nil {
		t.Error("over-long bit request accepted")
	}
}

func TestBERHierarchy(t *testing.T) {
	// Denser constellations are more fragile at equal noise — the ordering
	// an adaptive-modulation controller relies on.
	rng := stats.NewRand(8)
	bers := make([]float64, 0, 3)
	for _, bps := range []int{2, 4, 6} {
		q, _ := NewQAM(bps)
		m := &Modem{N: 128, CP: 16, QAM: q}
		ber, err := m.MeasureBER(rng, 40000, 0.18)
		if err != nil {
			t.Fatal(err)
		}
		bers = append(bers, ber)
	}
	if !(bers[0] <= bers[1] && bers[1] <= bers[2]) {
		t.Errorf("BER ordering broken: %v", bers)
	}
	if bers[0] > 0.01 {
		t.Errorf("QPSK BER %v too high at mild noise", bers[0])
	}
	if bers[2] == 0 {
		t.Errorf("64-QAM should show errors at this noise")
	}
}

func TestSpectralEfficiency(t *testing.T) {
	q, _ := NewQAM(4)
	m := &Modem{N: 64, CP: 0, QAM: q}
	// (32−1) carriers × 4 bits / 64 samples.
	want := float64(31*4) / 64
	if got := m.SpectralEfficiency(); math.Abs(got-want) > 1e-12 {
		t.Errorf("efficiency = %v, want %v", got, want)
	}
	// OFDM with 16-QAM comfortably beats Manchester-OOK's 0.5 bit/s/Hz.
	if m.SpectralEfficiency() < 1 {
		t.Error("16-QAM OFDM should exceed 1 bit/s/Hz")
	}
}

func TestGrayInverseProperty(t *testing.T) {
	f := func(raw uint8) bool {
		v := int(raw)
		return grayInverse(gray(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestConstantBitsPAPRHazard(t *testing.T) {
	// Loading every carrier with the same point concentrates the symbol's
	// energy into a time-domain impulse that clips at the bias — the PAPR
	// hazard that makes zero-padding (or any unscrambled constant fill)
	// dangerous. The test documents the failure mode: identical bits must
	// produce a strictly peakier waveform than random bits.
	q, _ := NewQAM(4)
	m := &Modem{N: 128, CP: 0, QAM: q}

	constant := make([]byte, m.BitsPerSymbol()) // all zeros
	waveC, err := m.Modulate(constant)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	random := make([]byte, m.BitsPerSymbol())
	for i := range random {
		random[i] = byte(rng.Intn(2))
	}
	waveR, err := m.Modulate(random)
	if err != nil {
		t.Fatal(err)
	}

	papr := func(w []float64) float64 {
		mean, peak := 0.0, 0.0
		for _, v := range w {
			mean += v
		}
		mean /= float64(len(w))
		var power float64
		for _, v := range w {
			d := v - mean
			power += d * d
			if math.Abs(d) > peak {
				peak = math.Abs(d)
			}
		}
		power /= float64(len(w))
		return peak * peak / power
	}
	if papr(waveC) <= 2*papr(waveR) {
		t.Errorf("constant fill PAPR %.1f not clearly above random %.1f", papr(waveC), papr(waveR))
	}
}
