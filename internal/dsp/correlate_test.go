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
// A third of the cases are randomChipTemplateCase's, the templates the
// screened search takes.
func randomCorrelationCase(rng *rand.Rand) (signal, template []float64) {
	if rng.Intn(3) == 0 {
		return randomChipTemplateCase(rng)
	}
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

// randomChipTemplateCase draws an upsampled Manchester template (2–8
// samples per chip, up to 384 samples, so some are too long for the
// screen's block) against noise plus planted copies of the template, at
// one of five scales: 1e-6 to 1e6, noise-free (planted copies only, or the
// template tiled end to end so that many lags tie exactly and overflow the
// screen's candidates), subnormal (on a short capture: subnormal arithmetic
// is slow), and above the screen's 1e100 limit.
// A third of the captures copy one stretch of themselves over another
// (exact duplicates: tied lags, where the first must win), and one in eight
// carries NaN or ±Inf samples.
func randomChipTemplateCase(rng *rand.Rand) (signal, template []float64) {
	spc := 2 + rng.Intn(7)
	bits := make([]byte, 1+rng.Intn(24))
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	template = Upsample(ManchesterEncode(bits), spc)
	n := len(template)
	kind := rng.Intn(5)
	extra := 2001
	if kind == 1 {
		extra = 201
	}
	signal = make([]float64, n+rng.Intn(extra))
	scale, noise := math.Pow(10, -6+12*rng.Float64()), 1.0
	switch kind {
	case 0:
		scale, noise = 1, 0
		if rng.Intn(2) == 0 {
			for i := range signal {
				signal[i] = template[i%n]
			}
		}
	case 1:
		scale = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		scale = math.Pow(10, 101+49*rng.Float64())
	}
	if noise > 0 {
		for i := range signal {
			signal[i] = scale * rng.NormFloat64()
		}
	}
	for c := rng.Intn(4); c > 0; c-- {
		k, amp := rng.Intn(len(signal)-n+1), scale*float64(1+rng.Intn(3))
		for i, t := range template {
			signal[k+i] += amp * t
		}
	}
	if rng.Intn(3) == 0 {
		l := rng.Intn(len(signal)/2 + 1)
		from, to := rng.Intn(len(signal)-l+1), rng.Intn(len(signal)-l+1)
		copy(signal[to:to+l], signal[from:from+l])
	}
	if rng.Intn(8) == 0 {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			signal[rng.Intn(len(signal))] = specials[rng.Intn(len(specials))]
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
	// How the chip-template cases ran: the screen (on a subnormal capture
	// or not), or which fallback.
	var screened, subnormal, nonFinite, tooLarge, tooLong, overflow int
	for c := 0; c < 7500; c++ {
		signal, template := randomCorrelationCase(rng)
		checkCorrelationPeak(t, signal, template)
		if chipWidth(template) < 2 || len(signal) < len(template) {
			continue
		}
		m := 0.0
		for _, x := range signal {
			m = max(m, math.Abs(x))
		}
		if _, _, _, ok := ScreenedPeak(signal, template); ok {
			if screened++; m < 0x1p-1022 {
				subnormal++
			}
			continue
		}
		switch {
		case math.IsNaN(m) || math.IsInf(m, 0):
			nonFinite++
		case m > screenMaxAbs:
			tooLarge++
		case len(template)-chipWidth(template) > screenSums/2:
			tooLong++
		default:
			overflow++
		}
	}
	t.Logf("chip templates: %d screened (%d subnormal); fallbacks: %d non-finite, %d above %g, %d too long, %d candidate overflows",
		screened, subnormal, nonFinite, tooLarge, screenMaxAbs, tooLong, overflow)
	for _, c := range []struct {
		name  string
		count int
	}{
		{"screened", screened}, {"subnormal screened", subnormal},
		{"non-finite", nonFinite}, {"too large", tooLarge}, {"too long", tooLong}, {"overflow", overflow},
	} {
		if c.count == 0 {
			t.Errorf("no chip-template case took the %s path", c.name)
		}
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
	if _, _, _, ok := ScreenedPeak(signal, template); !ok {
		t.Fatal("the preamble search fell back to the full scan; the allocation check would miss the screen")
	}
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

// FuzzCorrelationPeakChipTemplate checks the screened search the way
// FuzzCorrelationPeakMatchesReference checks the detector: the template is
// Upsample(ManchesterEncode(bits), spc) with spc 2–8 and up to 64 bits (one
// per byte, low bit), the signal raw float64s.
func FuzzCorrelationPeakChipTemplate(f *testing.F) {
	f.Add(uint8(3), []byte{1, 0, 1}, []byte{})
	planted := func(spc int, bits []byte, lead int) []byte {
		tmpl := Upsample(ManchesterEncode(bits), spc)
		raw := make([]byte, 8*(lead+len(tmpl)+lead))
		for i := 0; i < len(raw)/8; i++ {
			v := 0.25 * float64(i%7-3)
			if j := i - lead; j >= 0 && j < len(tmpl) {
				v += tmpl[j]
			}
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return raw
	}
	f.Add(uint8(3), []byte{1, 1, 0, 1, 0, 0}, planted(5, []byte{1, 1, 0, 1, 0, 0}, 40))
	f.Add(uint8(0), []byte{0, 1, 1, 0}, planted(2, []byte{0, 1, 1, 0}, 9))

	f.Fuzz(func(t *testing.T, spc uint8, bits, raw []byte) {
		if len(bits) > 64 {
			bits = bits[:64]
		}
		b := make([]byte, len(bits))
		for i, x := range bits {
			b[i] = x & 1
		}
		template := Upsample(ManchesterEncode(b), 2+int(spc%7))
		signal := make([]float64, len(raw)/8)
		for i := range signal {
			signal[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkCorrelationPeak(t, signal, template)
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

// TestScreenMarginBracketsDot checks screenMargin's claim directly, where
// the two summation orders differ most: windows whose n products s[i]·t[i]
// all have one sign and nearly the largest magnitude, so every partial sum
// grows and every addition rounds at its largest. Both fl(d̃ − w) ≤ dot and
// dot ≤ fl(d̃ + w) must hold, and the worst |d̃ − dot|/w is logged.
func TestScreenMarginBracketsDot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var b [screenSums]float64
	worst := 0.0
	for c := 0; c < 20000; c++ {
		g := 2 + rng.Intn(7)
		chips := 1 + rng.Intn((screenSums/2)/g)
		template := make([]float64, 0, chips*g)
		for range chips {
			x := float64(2*rng.Intn(2) - 1)
			for range g {
				template = append(template, x)
			}
		}
		n := len(template)
		scale := math.Pow(2, float64(rng.Intn(200)-100))
		signal := make([]float64, n)
		m := 0.0
		for i, x := range template {
			v := scale * (1 - rng.Float64()*math.Pow(2, -float64(rng.Intn(53))))
			if rng.Intn(8) == 0 {
				v = -v // a few cancellations
			}
			signal[i] = x * v
			m = max(m, math.Abs(signal[i]))
		}
		blockSums(b[:n-g+1], signal, g)
		d := chipDotAt(b[:n-g+1], template, g)
		dot := dotAt(signal, template, 0)
		w := screenMargin(n, m)
		if !(d-w <= dot && dot <= d+w) {
			t.Fatalf("n=%d g=%d: screened %v, dot %v, margin %v", n, g, d, dot, w)
		}
		worst = max(worst, math.Abs(d-dot)/w)
	}
	t.Logf("worst |d̃ − dot| / w = %.3g", worst)
}
