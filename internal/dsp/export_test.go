package dsp

import "math"

// ScreenedPeak runs CorrelationPeak's screened search alone, with no
// fallback to the full scan: ok is false where CorrelationPeak would fall
// back (or the template is not one the screen takes), and cands is the
// number of lags the exact pass correlated.
func ScreenedPeak(signal, template []float64) (best int, bestV float64, cands int, ok bool) {
	g := chipWidth(template)
	if g < 2 || len(signal) < len(template) {
		return 0, 0, 0, false
	}
	return screenedPeak(signal, template, g, math.Sqrt(float64(len(template))))
}
