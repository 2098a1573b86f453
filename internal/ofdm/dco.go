package ofdm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Modem is a DCO-OFDM modem for intensity-modulated optical channels.
//
// Of the N subcarriers, indices 1..N/2−1 carry data and N/2+1..N−1 mirror
// them conjugately (Hermitian symmetry) so the IFFT output is real; DC and
// Nyquist stay empty. A bias shifts the real waveform positive and the
// residual negative excursions clip at zero — the distortion that
// distinguishes DCO-OFDM from RF OFDM.
type Modem struct {
	// N is the FFT size (power of two ≥ 4).
	N int
	// CP is the cyclic-prefix length in samples.
	CP int
	// QAM is the per-subcarrier constellation.
	QAM *QAM
}

// biasSigma sets the DC bias to biasSigma standard deviations of the
// time-domain signal (7 dB bias ≈ 2.24; values ≥ 3 make clipping
// negligible).
const biasSigma = 3

// Validate reports whether the modem is usable.
func (m *Modem) Validate() error {
	switch {
	case m.N < 4 || m.N&(m.N-1) != 0:
		return fmt.Errorf("ofdm: FFT size %d must be a power of two ≥ 4", m.N)
	case m.CP < 0 || m.CP >= m.N:
		return fmt.Errorf("ofdm: cyclic prefix %d outside [0, %d)", m.CP, m.N)
	case m.QAM == nil:
		return errors.New("ofdm: nil constellation")
	}
	return nil
}

// DataCarriers returns the number of data-bearing subcarriers per symbol.
func (m *Modem) DataCarriers() int { return m.N/2 - 1 }

// BitsPerSymbol returns the payload bits one OFDM symbol carries.
func (m *Modem) BitsPerSymbol() int { return m.DataCarriers() * m.QAM.BitsPerSymbol }

// SpectralEfficiency returns payload bits per sample (≈ bits/s/Hz at
// critical sampling), accounting for Hermitian symmetry and the prefix.
func (m *Modem) SpectralEfficiency() float64 {
	return float64(m.BitsPerSymbol()) / float64(m.N+m.CP)
}

// Modulate converts a bit stream (multiple of BitsPerSymbol) into the
// non-negative intensity waveform: per symbol, QAM-map, mirror, IFFT, add
// prefix, bias and clip.
func (m *Modem) Modulate(bitstream []byte) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	bps := m.BitsPerSymbol()
	if len(bitstream)%bps != 0 {
		return nil, fmt.Errorf("ofdm: %d bits is not a multiple of %d per symbol", len(bitstream), bps)
	}
	nsym := len(bitstream) / bps
	out := make([]float64, 0, nsym*(m.N+m.CP))
	freq := make([]complex128, m.N)

	for s := 0; s < nsym; s++ {
		points, err := m.QAM.Modulate(bitstream[s*bps : (s+1)*bps])
		if err != nil {
			return nil, err
		}
		for i := range freq {
			freq[i] = 0
		}
		for k, p := range points {
			freq[k+1] = p
			freq[m.N-1-k] = complex(real(p), -imag(p)) // Hermitian mirror
		}
		if err := IFFT(freq); err != nil {
			return nil, err
		}

		// Real time-domain signal with σ scaling.
		td := make([]float64, m.N)
		var power float64
		for i, v := range freq {
			td[i] = real(v)
			power += td[i] * td[i]
		}
		sigma := math.Sqrt(power / float64(m.N))
		bias := biasSigma * sigma

		// Cyclic prefix, then the symbol; bias and clip at zero.
		emit := func(v float64) {
			v += bias
			if v < 0 {
				v = 0
			}
			out = append(out, v)
		}
		for i := m.N - m.CP; i < m.N; i++ {
			emit(td[i])
		}
		for _, v := range td {
			emit(v)
		}
	}
	return out, nil
}

// Demodulate inverts Modulate for a waveform that passed through a flat (or
// per-subcarrier) channel with AWGN. channelGain is the flat gain the
// equaliser divides out (1 for a back-to-back test). The number of payload
// bits must be supplied so trailing padding is discarded.
func (m *Modem) Demodulate(waveform []float64, channelGain float64, nbits int) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if channelGain == 0 {
		return nil, errors.New("ofdm: zero channel gain")
	}
	symLen := m.N + m.CP
	if len(waveform)%symLen != 0 {
		return nil, fmt.Errorf("ofdm: waveform of %d samples is not a multiple of the symbol length %d", len(waveform), symLen)
	}
	nsym := len(waveform) / symLen
	var bitsOut []byte
	freq := make([]complex128, m.N)

	for s := 0; s < nsym; s++ {
		block := waveform[s*symLen:]
		// Drop the prefix; the receiver-side DC removal makes the bias
		// irrelevant (subcarrier 0 is unused).
		for i := 0; i < m.N; i++ {
			freq[i] = complex(block[m.CP+i]/channelGain, 0)
		}
		if err := FFT(freq); err != nil {
			return nil, err
		}
		points := make([]complex128, m.DataCarriers())
		for k := range points {
			points[k] = freq[k+1]
		}
		bitsOut = append(bitsOut, m.QAM.Demodulate(points)...)
	}
	if nbits > len(bitsOut) {
		return nil, fmt.Errorf("ofdm: requested %d bits, decoded %d", nbits, len(bitsOut))
	}
	return bitsOut[:nbits], nil
}

// MeasureBER runs nbits random bits through the modem with per-sample AWGN
// of the given standard deviation relative to the waveform's RMS signal
// swing, returning the bit error rate. It is the harness behind the OFDM
// ablation experiment.
func (m *Modem) MeasureBER(rng *rand.Rand, nbits int, noiseRel float64) (float64, error) {
	bps := m.BitsPerSymbol()
	if nbits < bps {
		nbits = bps
	}
	nbits -= nbits % bps

	bitstream := make([]byte, nbits)
	for i := range bitstream {
		bitstream[i] = byte(rng.Intn(2))
	}
	wave, err := m.Modulate(bitstream)
	if err != nil {
		return 0, err
	}
	// Signal swing around the bias.
	mean := 0.0
	for _, v := range wave {
		mean += v
	}
	mean /= float64(len(wave))
	var swing float64
	for _, v := range wave {
		d := v - mean
		swing += d * d
	}
	swing = math.Sqrt(swing / float64(len(wave)))

	noisy := make([]float64, len(wave))
	sigma := noiseRel * swing
	for i, v := range wave {
		noisy[i] = v + sigma*rng.NormFloat64()
	}
	got, err := m.Demodulate(noisy, 1, nbits)
	if err != nil {
		return 0, err
	}
	errs := 0
	for i := range bitstream {
		if got[i] != bitstream[i] {
			errs++
		}
	}
	return float64(errs) / float64(nbits), nil
}
