// Package stats provides the small statistics helpers the evaluation
// harness uses.
package stats

import "math"

// Geomean returns the geometric mean of xs (1.0 for empty input).
// Non-positive entries are clamped to a tiny epsilon, matching how
// speedup geomeans treat degenerate runs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeomeanClamped is the paper's "taking the greater of 1.0x or the
// performance of each application" variant.
func GeomeanClamped(xs []float64) float64 {
	clamped := make([]float64, len(xs))
	for i, x := range xs {
		if x < 1 {
			x = 1
		}
		clamped[i] = x
	}
	return Geomean(clamped)
}
