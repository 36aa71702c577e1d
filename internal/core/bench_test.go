package core_test

import (
	"fmt"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// Per-layer benchmark of the compiler: core.Compile of generated
// programs that grow without bound, so a pass whose cost is not linear
// in the program shows as ns/op that more than doubles from one size to
// the next. Exported API only, so the same file measures any commit.

func BenchmarkCompileGroups(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		src := bench.LoopGroups(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := core.Compile("groups.c", src, core.Options{Strategy: core.CGCMOptimized})
				if err != nil {
					b.Fatal(err)
				}
				if p.Kernels() != 3*n {
					b.Fatalf("%d kernels, want %d", p.Kernels(), 3*n)
				}
			}
		})
	}
}

// TestCompileScalesLinearly is the deterministic form of the benchmark
// above: a compile of twice the program may allocate little more than
// twice as often. Allocation counts repeat from run to run to a part in
// ten thousand, so unlike a timing this cannot flake; a pass that redoes
// whole-function work per loop (the restart driver did, per outline)
// shows as a ratio near 4.
func TestCompileScalesLinearly(t *testing.T) {
	allocs := func(n int) float64 {
		src := bench.LoopGroups(n)
		return testing.AllocsPerRun(2, func() {
			if _, err := core.Compile("groups.c", src, core.Options{Strategy: core.CGCMOptimized}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(32), allocs(64)
	if ratio := big / small; ratio > 2.2 {
		t.Errorf("compiling 64 loop groups allocates %.0f times, 32 groups %.0f: ratio %.2f, want at most 2.2", big, small, ratio)
	} else {
		t.Logf("allocations: 32 groups %.0f, 64 groups %.0f, ratio %.2f", small, big, ratio)
	}
}

// TestCompileAllocations bounds what one compile allocates, the
// per-operation cost of compile_cold (and of every serve_mixed cache
// miss): 2mm, a PolyBench nest, srad, the largest Rodinia program, and 16
// and 32 loop groups, where map promotion runs all its rounds, under
// optimized CGCM. The counts repeat to within one object from run to run
// and do not depend on host speed, so this gates the host cost no timing
// can. Each bound is two objects above the count when it was set (5257,
// 8756, 36821 and 69532, once a compile built points-to once instead of
// in every pass; 5628, 9378 and 37898 before, and 5987, 9939 and 44766
// before map promotion stopped rebuilding its analyses every round and
// IR verification stopped hashing), room for that jitter and no more; a
// change that raises one must say why here.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	srcOf := func(name string) string {
		p, _ := bench.ByName(name)
		return p.Source
	}
	for _, c := range []struct {
		program, src string
		bound        float64
	}{
		{"2mm", srcOf("2mm"), 5259}, {"srad", srcOf("srad"), 8758},
		{"groups16", bench.LoopGroups(16), 36823}, {"groups32", bench.LoopGroups(32), 69534},
	} {
		t.Run(c.program, func(t *testing.T) {
			n := testing.AllocsPerRun(5, func() {
				if _, err := core.Compile(c.program+".c", c.src, core.Options{Strategy: core.CGCMOptimized}); err != nil {
					t.Fatal(err)
				}
			})
			if n > c.bound {
				t.Errorf("compiling %s allocates %.0f objects, more than %.0f", c.program, n, c.bound)
			}
			t.Logf("compiling %s allocates %.0f objects", c.program, n)
		})
	}
}

// BenchmarkWarmRun is one Program.Run of a compiled, already run program
// on one worker: serve_mixed's tiny program, run_comm's nw under
// unoptimized CGCM, and a manyunits-shaped one (4096 live heap units),
// whose run is mostly allocation units. A run resets a pooled machine,
// runtime and interpreter, so allocs/op is what the run itself needs.
func BenchmarkWarmRun(b *testing.B) {
	nw, _ := bench.ByName("nw")
	for _, c := range []struct {
		name, src string
		strategy  core.Strategy
	}{
		{"tiny", bench.Tiny, core.CGCMOptimized},
		{"nw-unopt", nw.Source, core.CGCMUnoptimized},
		{"manyunits", bench.ManyUnits(4096, 20), core.CGCMUnoptimized},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := core.Compile(c.name+".c", c.src, core.Options{Strategy: c.strategy, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(); err != nil { // lowers the module
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
