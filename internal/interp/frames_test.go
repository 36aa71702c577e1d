package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/core"
)

// A promoted local is no allocation unit: its alloca only reserves the
// address range the unit would have had. These tests pin the three parts
// of that: a call costs no host allocation, later addresses do not move,
// and a local whose address escapes is still a unit the runtime maps.

// callLoop calls a helper whose parameters and local are all promoted,
// trips times.
func callLoop(trips int) string {
	return fmt.Sprintf(`
int add(int a, int b) {
	int s = a + b;
	return s;
}
int main() {
	int t = 0;
	for (int i = 0; i < %d; i++) t = add(t, i);
	print_int(t %% 100); // below 256: boxing it allocates nothing
	return 0;
}`, trips)
}

// TestCallsAllocateNothing: a warm run allocates as many objects at 1 000
// trips of a call as at one. Each promoted parameter and local used to be
// a segment, a buffer, two tree nodes and an AllocInfo per call.
func TestCallsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	var counts [2]float64
	for k, trips := range []int{1, 1000} {
		prog, err := core.Compile("calls.c", callLoop(trips), core.Options{Strategy: core.Sequential, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Run(); err != nil { // lowers the module
			t.Fatal(err)
		}
		counts[k] = testing.AllocsPerRun(10, func() { prog.Run() })
	}
	if counts[0] != counts[1] {
		t.Errorf("a warm run allocates %.0f objects at 1 trip, %.0f at 1000", counts[0], counts[1])
	}
}

// TestPromotionKeepsLaterAddresses: the same program with x promoted and
// with x escaping into a no-op call prints the same later malloc address.
func TestPromotionKeepsLaterAddresses(t *testing.T) {
	src := `
void touch(int *p) { }
int main() {
	int x = 5;
	touch(ARG);
	int *q = (int*)malloc(8);
	print_int((long)q);
	print_int(x);
	return 0;
}`
	var outs [2]string
	for k, arg := range []string{"0", "&x"} {
		rep, err := core.CompileAndRun("addr.c", strings.Replace(src, "ARG", arg, 1), core.Options{Strategy: core.Sequential})
		if err != nil {
			t.Fatal(err)
		}
		outs[k] = rep.Output
	}
	if outs[0] != outs[1] {
		t.Errorf("promoted x prints %q, escaping x %q", outs[0], outs[1])
	}
}

// TestEscapingLocalIsMapped: a local array a kernel reads and writes is
// still an allocation unit: it is mapped to the device, its result comes
// back, and it has its ledger row.
func TestEscapingLocalIsMapped(t *testing.T) {
	src := `
int main() {
	float a[64];
	for (int i = 0; i < 64; i++) a[i] = (float)i;
	for (int i = 0; i < 64; i++) a[i] = a[i] * 2.0 + 1.0;
	float s = 0.0;
	for (int i = 0; i < 64; i++) s += a[i];
	print_float(s);
	return 0;
}`
	for _, strat := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized} {
		rep, err := core.CompileAndRun("stack.c", src, core.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Output != "4096\n" || rep.Stats.NumKernels == 0 {
			t.Errorf("%s: output %q from %d kernels, want 4096 from a kernel", strat, rep.Output, rep.Stats.NumKernels)
		}
		found := false
		for _, u := range rep.Comm.Units {
			if u.Name == "alloca main" && u.Size == 512 && u.Maps > 0 && u.HtoDCopies > 0 && u.DtoHCopies > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no mapped ledger row for the local array in %+v", strat, rep.Comm.Units)
		}
	}
}
