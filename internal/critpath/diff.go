// Diff attribution: explains the wall-time delta between two runs by
// comparing their critical paths class by class. Because each path
// tiles [0, Wall], the per-class deltas sum to the wall delta — the
// attribution is exhaustive, not a heuristic sample.
package critpath

import (
	"fmt"
	"math/big"
	"strings"
)

// ClassDelta is one class's contribution to the wall delta.
type ClassDelta struct {
	Class Class
	A, B  float64 // on-path time in each run
	Delta float64 // B - A; negative = this class left the critical path
}

// DiffResult attributes WallB - WallA to span classes.
type DiffResult struct {
	WallA, WallB float64
	Delta        float64
	Classes      []ClassDelta

	// exactA/exactB hold the per-class times in exact rational form when
	// the diff came from summaries (always, via Diff or DiffSummaries);
	// Exact verifies the attribution identity over them.
	exactA, exactB []*big.Rat
}

// Diff compares two analyses (A = base, B = variant). It goes through
// the Summary digest, so a diff of two live analyses and a diff of the
// same runs' deserialized records produce identical results.
func Diff(a, b *Analysis) *DiffResult {
	// Summaries from this build always pass the class check.
	d, _ := DiffSummaries(a.Summary(), b.Summary())
	return d
}

// Render prints the attribution table.
func (d *DiffResult) Render(w *strings.Builder, labelA, labelB string) {
	fmt.Fprintf(w, "wall: %s %.2fus -> %s %.2fus (%+.2fus, %+.2f%%)\n",
		labelA, d.WallA*1e6, labelB, d.WallB*1e6, d.Delta*1e6, 100*d.Delta/d.WallA)
	fmt.Fprintf(w, "critical-path attribution of the delta:\n")
	fmt.Fprintf(w, "  %-9s %12s %12s %12s\n", "class", labelA, labelB, "delta")
	for _, c := range d.Classes {
		if c.A == 0 && c.B == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s %10.2fus %10.2fus %+10.2fus\n",
			c.Class, c.A*1e6, c.B*1e6, c.Delta*1e6)
	}
	fmt.Fprintf(w, "  %-9s %10.2fus %10.2fus %+10.2fus  (classes sum to the wall delta)\n",
		"total", d.WallA*1e6, d.WallB*1e6, d.Delta*1e6)
}
