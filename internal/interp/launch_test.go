package interp_test

import (
	"fmt"
	"runtime"
	"testing"
)

// runMallocs counts the objects one run of an empty kernel launched n times
// allocates, on a module already lowered.
func runMallocs(t *testing.T, n int) uint64 {
	t.Helper()
	mod := buildIR(t, fmt.Sprintf(
		"__global__ void nop(int n) { }\nint main() {\n\tfor (int t = 0; t < %d; t++) nop<<<1, 1>>>(t);\n\treturn 0;\n}\n", n))
	runModule(t, mod)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	runModule(t, mod)
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestLaunchAllocatesNothing: with one worker, what a launch shares between
// its contexts lives on the interpreter, so a thousand more launches of an
// empty kernel cost the run no more objects (seven each, before).
func TestLaunchAllocatesNothing(t *testing.T) {
	few, many := runMallocs(t, 100), runMallocs(t, 1100)
	if many > few+100 {
		t.Errorf("1000 more launches allocated %d more objects, want under 0.1 per launch", many-few)
	}
}
