package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randomCorrelationCase draws a signal/template pair that covers every
// corner of the detector: template lengths 1–300, signals from shorter than
// the template up to template+2000 samples (so every lag count mod 6
// occurs), ±1 and Gaussian templates, all-zero templates, zero-energy
// windows, magnitudes from 1e-6 to 1e6 and occasional NaN/±Inf samples.
func randomCorrelationCase(rng *rand.Rand) (signal, template []float64) {
	n := 1 + rng.Intn(300)
	template = make([]float64, n)
	switch rng.Intn(8) {
	case 0: // all zero: no template norm
	case 1, 2, 3: // Manchester-like ±1 chips
		for i := range template {
			template[i] = float64(2*rng.Intn(2) - 1)
		}
	default:
		for i := range template {
			template[i] = rng.NormFloat64()
		}
	}

	length := n - 2 + rng.Intn(2003) // n−2 .. n+2000
	if length < 0 {
		length = 0
	}
	signal = make([]float64, length)
	scale := math.Pow(10, -6+12*rng.Float64())
	for i := range signal {
		signal[i] = scale * rng.NormFloat64()
	}
	if rng.Intn(4) == 0 && length > 0 {
		// A silent stretch: zero-energy windows (and, inside the rolling
		// energy, the drift guard).
		lo := rng.Intn(length)
		hi := lo + rng.Intn(length-lo+1)
		for i := lo; i < hi; i++ {
			signal[i] = 0
		}
	}
	if rng.Intn(4) == 0 && length > 0 {
		// A planted match gives the scan a strong positive peak to hold.
		k := rng.Intn(length)
		for i, t := range template {
			if k+i < length {
				signal[k+i] += 3 * scale * t
			}
		}
	}
	if rng.Intn(10) == 0 && length > 0 {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			signal[rng.Intn(length)] = specials[rng.Intn(len(specials))]
		}
	}
	return signal, template
}

// checkCorrelationPeak fails the test unless CorrelationPeak returns the
// reference's index and the same float64 bits. Any two NaN peak values count
// as equal: which operand's payload a NaN result carries is up to the
// instruction selection (the fuzz-instrumented build differs from the plain
// one), and no caller reads it.
func checkCorrelationPeak(t *testing.T, signal, template []float64) {
	t.Helper()
	wantK, wantV := FindPeak(CrossCorrelate(signal, template))
	gotK, gotV := CorrelationPeak(signal, template)
	sameV := math.Float64bits(gotV) == math.Float64bits(wantV) || math.IsNaN(gotV) && math.IsNaN(wantV)
	if gotK != wantK || !sameV {
		t.Fatalf("len(signal)=%d len(template)=%d: CorrelationPeak = (%d, %v), reference (%d, %v)",
			len(signal), len(template), gotK, gotV, wantK, wantV)
	}
}

func TestCorrelationPeakMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for c := 0; c < 5000; c++ {
		signal, template := randomCorrelationCase(rng)
		checkCorrelationPeak(t, signal, template)
	}
}

func TestCorrelationPeakEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name             string
		signal, template []float64
		wantK            int
	}{
		{"empty template", []float64{1, 2}, nil, -1},
		{"short signal", []float64{1}, []float64{1, 1}, -1},
		{"zero template", []float64{1, 2}, []float64{0, 0}, -1},
		{"exact length", []float64{2, -2}, []float64{1, -1}, 0},
		{"silent signal", make([]float64, 20), []float64{1, -1, 1}, 0},
		{"tie keeps first", []float64{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, []float64{1, 0}, 0},
		{"NaN at lag 0", []float64{math.Inf(1), math.Inf(-1), 1, -1, 1, -1, 1, -1, 1, -1}, []float64{1, 1}, 0},
		// A signalling NaN with payload bits, the sample that once made the
		// fuzz gate compare two NaN peaks bit for bit.
		{"payload NaN", []float64{1, math.Float64frombits(0xfff6303030303030), 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1}, []float64{1, -1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkCorrelationPeak(t, c.signal, c.template)
			if k, _ := CorrelationPeak(c.signal, c.template); k != c.wantK {
				t.Errorf("peak %d, want %d", k, c.wantK)
			}
		})
	}
}

func TestCorrelationPeakDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	signal, template := correlationBenchCase(rng)
	if a := testing.AllocsPerRun(20, func() { CorrelationPeak(signal, template) }); a != 0 {
		t.Errorf("CorrelationPeak: %v allocs/op, want 0", a)
	}
}

// FuzzCorrelationPeakMatchesReference decodes raw bytes into a template and
// a signal (8 bytes per float64, so NaN, ±Inf, denormals and negative zero
// all occur) and requires CorrelationPeak to match the reference as
// checkCorrelationPeak does: the same index and, unless both are NaN, the
// same value bits.
func FuzzCorrelationPeakMatchesReference(f *testing.F) {
	f.Add(uint16(3), []byte{})
	f.Add(uint16(1), make([]byte, 8*40))
	seed := make([]byte, 8*64)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i%24)-11.5))
	}
	f.Add(uint16(9), seed)

	f.Fuzz(func(t *testing.T, tmplLen uint16, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		n := int(tmplLen) % (len(vals) + 1)
		checkCorrelationPeak(t, vals[n:], vals[:n])
	})
}

// correlationBenchCase is the receiver's preamble search in room-async: a
// 3600-sample capture at 1 Msps against the 240-sample preamble template
// (48 Manchester chips at 5 samples per chip).
func correlationBenchCase(rng *rand.Rand) (signal, template []float64) {
	bits := make([]byte, 24)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	template = Upsample(ManchesterEncode(bits), 5)
	signal = make([]float64, 3600)
	for i := range signal {
		signal[i] = 0.3 * rng.NormFloat64()
	}
	for i, c := range template {
		signal[120+i] += c
	}
	return signal, template
}

// peakSink keeps the benchmarked call from being optimised away.
var peakSink int

func BenchmarkCorrelationPeak(b *testing.B) {
	signal, template := correlationBenchCase(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		peakSink, _ = CorrelationPeak(signal, template)
	}
}
