package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestButterworthDCGain(t *testing.T) {
	for _, order := range []int{1, 2, 3, 4, 7} {
		c, err := ButterworthLowpass(order, 100e3, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		// Drive with DC and check settling to gain 1.
		var y float64
		for i := 0; i < 10000; i++ {
			y = c.Process(1)
		}
		if math.Abs(y-1) > 1e-6 {
			t.Errorf("order %d: DC gain = %v", order, y)
		}
	}
}

func TestButterworthCutoffIs3dB(t *testing.T) {
	c, err := ButterworthLowpass(7, 100e3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	g := FrequencyResponse(c, 100e3, 1e6, 200)
	want := 1 / math.Sqrt2
	if math.Abs(g-want) > 0.02 {
		t.Errorf("gain at cutoff = %v, want %v", g, want)
	}
}

func TestButterworth7thOrderRolloff(t *testing.T) {
	// A 7th-order filter rolls off at 42 dB/octave: one octave above the
	// cutoff the gain must be ≈ −42 dB (allowing bilinear warping slack).
	c, err := ButterworthLowpass(7, 50e3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	g := FrequencyResponse(c, 100e3, 1e6, 400)
	db := 20 * math.Log10(g)
	if db > -38 || db < -55 {
		t.Errorf("gain one octave up = %.1f dB, want ≈ −42 dB", db)
	}
	// Passband is flat: half the cutoff should be nearly unity.
	gPass := FrequencyResponse(c, 25e3, 1e6, 200)
	if gPass < 0.98 || gPass > 1.02 {
		t.Errorf("passband gain = %v", gPass)
	}
}

func TestButterworthMonotoneMagnitude(t *testing.T) {
	// Butterworth is maximally flat: the magnitude response decreases
	// monotonically with frequency.
	c, err := ButterworthLowpass(7, 100e3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, f := range []float64{10e3, 50e3, 90e3, 100e3, 150e3, 200e3, 300e3, 400e3} {
		g := FrequencyResponse(c, f, 1e6, 300)
		if g > prev+0.01 {
			t.Fatalf("magnitude increased at %v Hz: %v > %v", f, g, prev)
		}
		prev = g
	}
}

func TestButterworthErrors(t *testing.T) {
	if _, err := ButterworthLowpass(0, 1e3, 1e6); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := ButterworthLowpass(3, 0, 1e6); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := ButterworthLowpass(3, 6e5, 1e6); err == nil {
		t.Error("cutoff above Nyquist accepted")
	}
}

func TestChainReset(t *testing.T) {
	c, _ := ButterworthLowpass(4, 100e3, 1e6)
	var a, b [4]float64
	for i := range a {
		a[i] = c.Process(1)
	}
	c.Reset()
	for i := range b {
		b[i] = c.Process(1)
	}
	if a != b {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestACCouplerRemovesDC(t *testing.T) {
	ac := NewACCoupler(1e3, 1e6)
	var y float64
	for i := 0; i < 200000; i++ {
		y = ac.Process(3.3) // constant ambient light level
	}
	if math.Abs(y) > 1e-3 {
		t.Errorf("DC leak = %v", y)
	}
	// A fast square wave passes nearly unchanged in amplitude.
	ac.Reset()
	var min, max float64
	for i := 0; i < 4000; i++ {
		x := 3.3
		if (i/10)%2 == 0 {
			x = 3.5
		}
		y := ac.Process(x)
		if i > 2000 {
			if y < min {
				min = y
			}
			if y > max {
				max = y
			}
		}
	}
	if max-min < 0.15 {
		t.Errorf("AC swing attenuated to %v, want ≈0.2", max-min)
	}
}

func TestManchesterRoundTrip(t *testing.T) {
	bits := []byte{0, 1, 1, 0, 1, 0, 0, 1}
	chips := ManchesterEncode(bits)
	if len(chips) != 16 {
		t.Fatalf("chips = %d", len(chips))
	}
	// Each bit period must be DC-free: chips sum to zero.
	for i := 0; i < len(chips); i += 2 {
		if chips[i]+chips[i+1] != 0 {
			t.Fatal("bit period not DC-free — brightness would flicker")
		}
	}
	got, ties, err := ManchesterDecode(chips)
	if err != nil || ties != 0 {
		t.Fatalf("err=%v ties=%d", err, ties)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestManchesterDecodeNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bits := make([]byte, 1000)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	chips := ManchesterEncode(bits)
	for i := range chips {
		chips[i] += 0.4 * rng.NormFloat64() // SNR ≈ 8 dB per chip
	}
	got, _, err := ManchesterDecode(chips)
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for i := range bits {
		if got[i] != bits[i] {
			errors++
		}
	}
	// The half-bit comparison gives ~3 dB gain; BER should be well under 1%.
	if errors > 10 {
		t.Errorf("%d/1000 bit errors at mild noise", errors)
	}
}

func TestManchesterDecodeErrors(t *testing.T) {
	if _, _, err := ManchesterDecode([]float64{1}); err != ErrOddChips {
		t.Errorf("err = %v", err)
	}
	_, ties, err := ManchesterDecode([]float64{0.5, 0.5})
	if err != nil || ties != 1 {
		t.Errorf("tie not counted: ties=%d err=%v", ties, err)
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != 8*len(data) {
			return false
		}
		back, err := BitsToBytes(bits)
		if err != nil || len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesErrors(t *testing.T) {
	if _, err := BitsToBytes(make([]byte, 7)); err == nil {
		t.Error("ragged bit count accepted")
	}
	if _, err := BitsToBytes([]byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func TestBytesToBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0x80, 0x01})
	if bits[0] != 1 || bits[7] != 0 || bits[8] != 0 || bits[15] != 1 {
		t.Errorf("bit order wrong: %v", bits)
	}
}

func TestUpsampleDownsampleRoundTrip(t *testing.T) {
	chips := []float64{1, -1, 1, 1, -1}
	for _, spc := range []int{1, 4, 10} {
		wave := Upsample(chips, spc)
		if len(wave) != len(chips)*spc {
			t.Fatalf("spc %d: len %d", spc, len(wave))
		}
		back := Downsample(wave, spc, 0)
		if len(back) != len(chips) {
			t.Fatalf("spc %d: got %d chips", spc, len(back))
		}
		for i := range chips {
			if math.Abs(back[i]-chips[i]) > 1e-12 {
				t.Fatalf("spc %d chip %d: %v", spc, i, back[i])
			}
		}
	}
}

func TestDownsampleEdgeCases(t *testing.T) {
	if Downsample(nil, 4, 0) != nil {
		t.Error("empty input")
	}
	if Downsample([]float64{1, 2}, 4, 5) != nil {
		t.Error("offset beyond input")
	}
	if got := Downsample([]float64{1, 2, 3, 4}, 2, 1); len(got) != 1 || got[0] != 2.5 {
		t.Errorf("offset downsample = %v", got)
	}
	if Upsample([]float64{1}, 0)[0] != 1 {
		t.Error("spc<1 should clamp to 1")
	}
}

func TestADCQuantize(t *testing.T) {
	a := ADC{Bits: 12, FullScale: 1.0}
	step := a.StepSize()
	if math.Abs(step-2.0/4096) > 1e-15 {
		t.Errorf("step = %v", step)
	}
	// Quantisation error bounded by half an LSB inside the range.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*1.9 - 0.95
		q := a.Quantize(x)
		if math.Abs(q-x) > step/2+1e-12 {
			t.Fatalf("error %v exceeds half LSB", math.Abs(q-x))
		}
	}
	// Clipping.
	if a.Quantize(5) > 1 || a.Quantize(-5) < -1 {
		t.Error("clipping failed")
	}
	// Disabled ADC passes through.
	if (ADC{}).Quantize(0.1234) != 0.1234 {
		t.Error("zero-valued ADC should pass through")
	}
	if (ADC{}).StepSize() != 0 {
		t.Error("zero-valued ADC step")
	}
}

func TestCrossCorrelateFindsTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	template := ManchesterEncode([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0})
	signal := make([]float64, 500)
	for i := range signal {
		signal[i] = 0.3 * rng.NormFloat64()
	}
	const offset = 217
	for i, c := range template {
		signal[offset+i] += c
	}
	corr := CrossCorrelate(signal, template)
	peak, v := FindPeak(corr)
	if peak != offset {
		t.Errorf("peak at %d, want %d", peak, offset)
	}
	if v < 0.8 {
		t.Errorf("peak correlation %v too weak", v)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelate(nil, []float64{1}) != nil {
		t.Error("short signal")
	}
	if CrossCorrelate([]float64{1, 2}, nil) != nil {
		t.Error("empty template")
	}
	if CrossCorrelate([]float64{1, 2}, []float64{0, 0}) != nil {
		t.Error("zero template")
	}
	if i, _ := FindPeak(nil); i != -1 {
		t.Error("empty peak")
	}
}

func TestCrossCorrelateNormalization(t *testing.T) {
	// Perfect match yields exactly 1 regardless of scale.
	tmpl := []float64{1, -1, 1, 1}
	signal := make([]float64, 4)
	for i, v := range tmpl {
		signal[i] = 5 * v
	}
	corr := CrossCorrelate(signal, tmpl)
	if math.Abs(corr[0]-1) > 1e-12 {
		t.Errorf("corr = %v, want 1", corr[0])
	}
}
