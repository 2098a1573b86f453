package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	// Sample variance with n-1 denominator: Σ(x-5)² = 32, /7.
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", v)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty slices should give 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 25); got != 2.5 {
		t.Errorf("interpolated percentile = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	// CI half width: t(4)=2.776, sd=sqrt(2.5), n=5.
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95, want)
	}
}

func TestTCriticalMonotoneToNormal(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("t-critical not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	// Large-df limit approaches the normal quantile 1.96.
	if v := TCritical95(100000); math.Abs(v-1.95996) > 1e-3 {
		t.Errorf("t(1e5) = %v, want ≈1.96", v)
	}
	// Continuity across the table boundary (df=30 vs 31).
	if d := TCritical95(30) - TCritical95(31); d < 0 || d > 0.01 {
		t.Errorf("discontinuity at table boundary: %v", d)
	}
	if TCritical95(0) != 0 {
		t.Error("df<1 should give 0")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Bound magnitudes so x-1 is representably below x.
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// F is 1 at the max, 0 below the min, and monotone.
		if e.At(sorted[len(sorted)-1]) != 1 {
			return false
		}
		if e.At(sorted[0]-1) != 0 {
			return false
		}
		return e.At(sorted[0]) <= e.At(sorted[len(sorted)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestSplitRandIndependence(t *testing.T) {
	parent := NewRand(1)
	a := SplitRand(parent)
	b := SplitRand(parent)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("split streams should differ")
	}
}

func TestCI95ZeroForTinySamples(t *testing.T) {
	if CI95HalfWidth([]float64{1}) != 0 || CI95HalfWidth(nil) != 0 {
		t.Error("CI of <2 samples should be 0")
	}
}
