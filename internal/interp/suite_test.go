package interp_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
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

// TestWarmRunAllocations bounds what a warm run of a suite program
// allocates, on one worker: run_compute's jacobi-2d-imper under optimized
// CGCM, run_comm's nw in its three configurations, and cfd, whose
// helpers are called per element. The count repeats to within one object
// from run to run and does not depend on host speed, so it gates the host
// cost no timing can: each bound is one object above the count when it
// was set, and a change that raises one must say why here. The bounds
// fell by 4 (119/585/596/189 counts before) when the machine's histogram
// bounds were built once per process instead of once per run, registry
// or not; they fell again, to 106/548/559/174 counts, when the ledger
// stopped keeping a map of allocation lines and a map of seen epochs per
// unit (the unit's line now rides on its AllocInfo); and to 55/64/75/66
// (cfd 1337 before) when promoted locals stopped being allocation units
// and segments, tree nodes and AllocInfos came from per-run slabs.
func TestWarmRunAllocations(t *testing.T) {
	faults, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		program, config string
		opts            core.Options
		bound           float64
	}{
		{"jacobi-2d-imper", "opt", core.Options{Strategy: core.CGCMOptimized}, 56},
		{"nw", "unopt", core.Options{Strategy: core.CGCMUnoptimized}, 65},
		{"nw", "unopt-async", core.Options{Strategy: core.CGCMUnoptimized, Async: true}, 76},
		{"nw", "opt-faults", core.Options{Strategy: core.CGCMOptimized, GPUMemBytes: 256 << 10, FaultSpec: faults}, 67},
		{"cfd", "unopt", core.Options{Strategy: core.CGCMUnoptimized}, 168},
	} {
		t.Run(c.program+"/"+c.config, func(t *testing.T) {
			p, _ := bench.ByName(c.program)
			c.opts.Workers = 1
			prog, err := core.Compile(p.Name+".c", p.Source, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prog.Run(); err != nil { // lowers the module
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(10, func() { prog.Run() })
			t.Logf("a warm run allocates %.0f objects", n)
			if n > c.bound {
				t.Errorf("a warm run allocates %.0f objects, more than %.0f", n, c.bound)
			}
		})
	}
}

// TestSuiteLoopsAreLowered: in every suite program under every strategy,
// no br into a block's only way in survives, no latch jumps to a loop
// test it could run in place or keeps its increment apart from that
// test, every row-major access is one instruction, and so is every
// multiply with the add or subtract it feeds. The other half of run_compute's speed is these forms; a
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
