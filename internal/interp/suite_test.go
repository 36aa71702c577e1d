package interp_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/interp"
)

var strategies = []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized}

// TestSuiteLocalsArePromoted: in every suite program under every
// strategy, each 8-byte local used only as a whole lives in a frame slot.
// Most of run_compute's speed is this promotion; a front-end or pass
// change that leaves such locals in memory fails here instead of quietly
// costing it.
func TestSuiteLocalsArePromoted(t *testing.T) {
	for _, p := range bench.All() {
		for _, s := range strategies {
			prog, err := core.Compile(p.Name+".c", p.Source, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s [%s]: %v", p.Name, s, err)
			}
			for _, l := range interp.UnpromotedLocals(prog.Module) {
				t.Errorf("%s [%s]: %s stayed in memory", p.Name, s, l)
			}
		}
	}
}

// TestWarmRunAllocations bounds what a warm run of a compute-bound suite
// program allocates: run_compute's jacobi-2d-imper under optimized CGCM,
// on one worker. The count repeats to within one object from run to run
// and does not depend on host speed, so it gates the host cost no timing
// can: 120 is the count when the bound was set, and a change that raises
// it must say why here.
func TestWarmRunAllocations(t *testing.T) {
	const bound = 120
	p, _ := bench.ByName("jacobi-2d-imper")
	prog, err := core.Compile(p.Name+".c", p.Source, core.Options{Strategy: core.CGCMOptimized, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(); err != nil { // lowers the module
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { prog.Run() }); n > bound {
		t.Errorf("a warm run allocates %.0f objects, more than %d", n, bound)
	}
}

// TestSuiteLoopsAreLowered: in every suite program under every strategy,
// no br into a block's only way in survives, no latch jumps to a loop
// test it could run in place, and every row-major access is one
// instruction. The other half of run_compute's speed is these forms; a
// front-end or pass change that defeats them fails here, naming the
// function and block.
func TestSuiteLoopsAreLowered(t *testing.T) {
	for _, p := range bench.All() {
		for _, s := range strategies {
			prog, err := core.Compile(p.Name+".c", p.Source, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s [%s]: %v", p.Name, s, err)
			}
			for _, m := range interp.LoweringMisses(prog.Module) {
				t.Errorf("%s [%s]: %s", p.Name, s, m)
			}
		}
	}
}
