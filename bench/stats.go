package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailSamples is how many samples a percentile needs beyond it: p99 needs
// 1000 samples.
const tailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses a tail percentile (q > 0.5) without tailSamples samples beyond it,
// because such a number is one or two outliers, not a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q > 0.5 && float64(len(xs))*(1-q) < tailSamples-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", 100*q, tailSamples, len(xs))
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(rank, 0)], nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// spreads are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func msSamples(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runtimeSample is the process's CPU time, heap allocation and GC count at
// one instant.
type runtimeSample struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	maxRSSKB int64
}

func sampleRuntime() runtimeSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := runtimeSample{at: time.Now(), alloc: mem.TotalAlloc, gcs: mem.NumGC}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = ru.Maxrss // Linux reports the high-water mark (VmHWM) in KiB
	}
	return s
}
