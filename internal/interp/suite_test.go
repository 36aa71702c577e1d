package interp_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/interp"
)

// TestSuiteLocalsArePromoted: in every suite program under every
// strategy, each 8-byte local used only as a whole lives in a frame slot.
// Most of run_compute's speed is this promotion; a front-end or pass
// change that leaves such locals in memory fails here instead of quietly
// costing it.
func TestSuiteLocalsArePromoted(t *testing.T) {
	for _, p := range bench.All() {
		for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
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
