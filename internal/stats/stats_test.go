package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 1 {
		t.Errorf("empty geomean = %g", g)
	}
	if g := Geomean([]float64{4}); !approx(g, 4) {
		t.Errorf("singleton = %g", g)
	}
	if g := Geomean([]float64{1, 4}); !approx(g, 2) {
		t.Errorf("geomean(1,4) = %g", g)
	}
	if g := Geomean([]float64{2, 2, 2}); !approx(g, 2) {
		t.Errorf("constant = %g", g)
	}
	// Non-positive entries clamp rather than NaN.
	if g := Geomean([]float64{0, 1}); math.IsNaN(g) || math.IsInf(g, 0) {
		t.Errorf("zero entry produced %g", g)
	}
}

func TestGeomeanClamped(t *testing.T) {
	// The paper's variant: 0.5 clamps to 1.
	if g := GeomeanClamped([]float64{0.5, 4}); !approx(g, 2) {
		t.Errorf("clamped = %g, want 2", g)
	}
	if g := GeomeanClamped([]float64{0.1, 0.2}); !approx(g, 1) {
		t.Errorf("all-clamped = %g, want 1", g)
	}
}

// Property: geomean is scale-equivariant (geomean(kx) = k*geomean(x)) and
// bounded by min/max.
func TestQuickGeomeanProperties(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 0.5 + float64(r%1000)/100 // in [0.5, 10.5)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		if g < lo-1e-9 || g > hi+1e-9 {
			return false
		}
		k := 1 + float64(kRaw%7)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * k
		}
		return math.Abs(Geomean(scaled)-k*g) < 1e-6*k*g+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
