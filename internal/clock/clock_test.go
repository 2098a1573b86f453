package clock

import (
	"math"
	"testing"

	"densevlc/internal/stats"
	"densevlc/internal/units"
)

func TestTable4NoSyncMedian(t *testing.T) {
	// Table 4: 10.040 µs median at 100 Ksymbols/s without synchronisation.
	rng := stats.NewRand(3)
	med := MedianPairwiseDelay(rng, MethodNone, 100e3, 20000)
	if med < 7e-6 || med > 14e-6 {
		t.Errorf("no-sync median = %v µs, paper reports 10.040 µs", med.S()*1e6)
	}
}

func TestTable4NTPPTPMedian(t *testing.T) {
	// Table 4: 4.565 µs median at 100 Ksymbols/s with NTP/PTP.
	rng := stats.NewRand(4)
	med := MedianPairwiseDelay(rng, MethodNTPPTP, 100e3, 20000)
	if med < 3e-6 || med > 7e-6 {
		t.Errorf("NTP/PTP median = %v µs, paper reports 4.565 µs", med.S()*1e6)
	}
}

func TestNTPPTPAtLeastTwiceBetter(t *testing.T) {
	// Fig. 12: NTP/PTP improves the delay by at least a factor of two at
	// every symbol rate.
	rng := stats.NewRand(5)
	for _, rate := range []units.Hertz{1e3, 2e3, 5e3, 10e3, 20e3, 50e3, 64e3} {
		none := MedianPairwiseDelay(rng, MethodNone, rate, 5000)
		ptp := MedianPairwiseDelay(rng, MethodNTPPTP, rate, 5000)
		if ptp >= none/1.8 {
			t.Errorf("rate %v: NTP/PTP %v not ≈2x better than none %v", rate, ptp, none)
		}
	}
}

func TestDelayDecreasesWithSymbolRate(t *testing.T) {
	// Fig. 12's shape: both curves fall as the symbol rate grows (the
	// symbol-period ambiguity shrinks), then floor out.
	rng := stats.NewRand(6)
	for _, m := range []Method{MethodNone, MethodNTPPTP} {
		low := MedianPairwiseDelay(rng, m, 1e3, 5000)
		high := MedianPairwiseDelay(rng, m, 64e3, 5000)
		if high >= low {
			t.Errorf("%v: delay did not decrease with symbol rate (%v → %v)", m, low, high)
		}
		// At 1 Ksym/s the delay is dominated by the ~1 ms symbol period:
		// hundreds of µs, matching Fig. 12's top-left region.
		if m == MethodNone && (low < 100e-6 || low > 600e-6) {
			t.Errorf("no-sync delay at 1 Ksym/s = %v, want hundreds of µs", low)
		}
	}
}

func TestTriggerErrorPanicsOnNLOS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NLOS method should panic here (modelled in vlcsync)")
		}
	}()
	TriggerError(stats.NewRand(1), MethodNLOSVLC, 1e5)
}

func TestMaxSymbolRate(t *testing.T) {
	// 10% overlap at 7 µs delay → 14.28 Ksymbols/s (Sec. 6.1).
	got := MaxSymbolRate(7e-6, 0.1)
	if math.Abs(got.Hz()-14285.7) > 1 {
		t.Errorf("max rate = %v, want ≈14285.7", got)
	}
	if MaxSymbolRate(0, 0.1) != 0 {
		t.Error("zero delay should report 0 (undefined)")
	}
}

func TestMethodString(t *testing.T) {
	if MethodNone.String() != "no synchronization" ||
		MethodNTPPTP.String() != "NTP/PTP" ||
		MethodNLOSVLC.String() != "NLOS VLC" ||
		Method(9).String() != "Method(9)" {
		t.Error("method strings")
	}
}

func TestMedianHelper(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median")
	}
}

func TestMedianPairwiseDelayMinTrials(t *testing.T) {
	rng := stats.NewRand(7)
	if d := MedianPairwiseDelay(rng, MethodNone, 1e5, 0); d < 0 {
		t.Error("n<1 should clamp to 1 trial and return a value")
	}
}

// TestMemberOffset pins the one sync-offset model both runtimes draw from:
// NLOS-VLC members trigger within the 1.2 µs sampling-phase window,
// NTP/PTP members keep a non-negative trigger error, and only
// unsynchronised boards free-run (within 20 ms).
func TestMemberOffset(t *testing.T) {
	tests := []struct {
		m       Method
		max     units.Seconds
		freeRun bool
	}{
		{MethodNLOSVLC, 1.2e-6, false},
		{MethodNTPPTP, 50e-6, false},
		{MethodNone, 20e-3, true},
	}
	for _, tt := range tests {
		rng := stats.NewRand(3)
		for k := 0; k < 200; k++ {
			off, freeRun := MemberOffset(rng, tt.m, 100e3)
			if off < 0 || off >= tt.max || freeRun != tt.freeRun {
				t.Fatalf("%v draw %d: offset %g s, free-run %v; want [0, %g) s, free-run %v",
					tt.m, k, off.S(), freeRun, tt.max.S(), tt.freeRun)
			}
		}
	}
}
