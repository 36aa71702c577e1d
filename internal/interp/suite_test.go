package interp_test

import (
	"runtime"
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

// TestWarmRunAllocations bounds what a warm run allocates, objects and
// bytes, on one worker: run_compute's jacobi-2d-imper under optimized
// CGCM, run_comm's nw in its three configurations, cfd, whose helpers are
// called per element, serve_mixed's tiny program and a manyunits-shaped
// one (4096 live 16-byte heap units). The counts repeat to within one
// object from run to run and do not depend on host speed, so they gate
// the host cost no timing can: each object bound is one above the count
// when it was set, each byte bound a quarter above, and a change that
// raises one must say why here. History of the object counts
// (jacobi/nw unopt/unopt-async/opt-faults/cfd): 119/585/596/189/- when
// the machine's histogram bounds were built once per process instead of
// once per run; 106/548/559/174 when the ledger stopped keeping a map of
// allocation lines and a map of seen epochs per unit; 55/64/75/66/1337
// when promoted locals stopped being allocation units and segments, tree
// nodes and AllocInfos came from per-run slabs; 4/4/7/11/4 (cfd 167,
// tiny 43, manyunits 4285; bytes 166k/398k/399k/366k/380k, tiny 28k,
// manyunits 1.53M) when a Program started keeping its machine, runtime
// and interpreter in a pool and resetting them: what is left is the
// Report, its Output and ledger, and what a fault plan or a printed
// float allocates. The nw/unopt-profile row is what keeping the run's
// record costs: the verb list and the notes (handed to the Report, never
// reused), the log's replay and the profile's folds.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	faults, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		program, config string
		opts            core.Options
		objects, bytes  float64
	}{
		{"jacobi-2d-imper", "opt", core.Options{Strategy: core.CGCMOptimized}, 5, 1180},
		{"nw", "unopt", core.Options{Strategy: core.CGCMUnoptimized}, 5, 1180},
		{"nw", "unopt-async", core.Options{Strategy: core.CGCMUnoptimized, Async: true}, 8, 1260},
		{"nw", "opt-faults", core.Options{Strategy: core.CGCMOptimized, GPUMemBytes: 256 << 10, FaultSpec: faults}, 12, 1510},
		{"cfd", "unopt", core.Options{Strategy: core.CGCMUnoptimized}, 5, 6820},
		{"nw", "unopt-profile", core.Options{Strategy: core.CGCMUnoptimized, Profile: true}, 864, 5_970_000},
		{"tiny", "opt", core.Options{Strategy: core.CGCMOptimized}, 5, 960},
		{"manyunits", "unopt", core.Options{Strategy: core.CGCMUnoptimized}, 5, 1210},
	} {
		t.Run(c.program+"/"+c.config, func(t *testing.T) {
			src := warmSources[c.program]
			if src == "" {
				p, _ := bench.ByName(c.program)
				src = p.Source
			}
			c.opts.Workers = 1
			prog, err := core.Compile(c.program+".c", src, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prog.Run(); err != nil { // lowers the module
				t.Fatal(err)
			}
			objects, bytes := allocsPerRun(10, func() { prog.Run() })
			t.Logf("a warm run allocates %.0f objects, %.0f bytes", objects, bytes)
			if objects > c.objects {
				t.Errorf("a warm run allocates %.0f objects, more than %.0f", objects, c.objects)
			}
			if bytes > c.bytes {
				t.Errorf("a warm run allocates %.0f bytes, more than %.0f", bytes, c.bytes)
			}
		})
	}
}

// warmSources are TestWarmRunAllocations' programs that are not in the
// suite: serve_mixed's tiny program, and one holding 4096 live 16-byte
// heap units while 20 small kernels run, as hostbench's manyunits does.
var warmSources = map[string]string{"tiny": bench.Tiny, "manyunits": bench.ManyUnits(4096, 20)}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes: the
// average heap objects and bytes one call of f allocates, after a warm-up
// call, on one P.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
