// Package stats provides the small statistical toolkit used across the
// DenseVLC experiments: summary statistics, confidence intervals, empirical
// CDFs and deterministic random sources.
//
// Every experiment in the paper reports either an average with a 95%
// confidence interval (Fig. 8), an empirical CDF (Fig. 10), or a loss
// distribution over random instances (Fig. 11, which the reproduction
// summarises by its mean); this package implements those estimators.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator),
// or 0 when fewer than two samples are present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs, leaving the input
// unmodified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary bundles the statistics the experiment tables report for a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95% confidence interval of the mean,
	// i.e. the mean lies in [Mean-CI95, Mean+CI95].
	CI95 float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.CI95 = CI95HalfWidth(xs)
	return s
}

// CI95HalfWidth returns the half-width of the 95% confidence interval of the
// sample mean, using the Student-t critical value for the sample size. For
// n >= 2 this is t_{0.975,n-1} * s/sqrt(n); for n < 2 it is 0.
func CI95HalfWidth(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return TCritical95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. Values for df <= 30 come from the standard
// table; beyond that the normal approximation refined by the Cornish-Fisher
// expansion is used (accurate to <0.1% for df > 30).
func TCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	table := [...]float64{
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
		11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
		16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
		21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
		26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
	}
	if df < len(table) {
		return table[df]
	}
	// Cornish-Fisher expansion around the normal quantile z = 1.959964.
	z := 1.9599639845400545
	v := float64(df)
	return z + (z*z*z+z)/(4*v) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*v*v)
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P(X <= x), the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Len returns the number of samples in the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }
