package core_test

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// Per-layer benchmark of the compiler: core.Compile of generated
// programs that grow without bound, so a pass whose cost is not linear
// in the program shows as ns/op that more than doubles from one size to
// the next. Exported API only, so the same file measures any commit.

// loopGroups emits n independent loop groups in main — two heap arrays,
// an init loop, a 3-trip timestep loop around two DOALL loops, a host
// read: three kernels and five loops per group, the shape hostbench's
// gen8/16/32 classes compile.
func loopGroups(n int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tfloat sum = 0.0;\n")
	for g := 0; g < n; g++ {
		size := 16 + 8*(g%3)
		fmt.Fprintf(&b, "\tfloat *a%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfloat *b%d = (float*)malloc(%d * 8);\n", g, size)
		fmt.Fprintf(&b, "\tfor (int i = 0; i < %d; i++) a%d[i] = (float)(i %% %d) * 0.25;\n", size, g, 3+g%6)
		b.WriteString("\tfor (int t = 0; t < 3; t++) {\n")
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) b%d[i] = a%d[i] * 0.75 + %d.5;\n", size, g, g, g%5)
		fmt.Fprintf(&b, "\t\tfor (int i = 0; i < %d; i++) a%d[i] = b%d[i] * 0.5;\n", size, g, g)
		fmt.Fprintf(&b, "\t}\n\tsum += a%d[%d];\n\tfree(a%d); free(b%d);\n", g, g%size, g, g)
	}
	b.WriteString("\tprint_float(sum);\n\treturn 0;\n}\n")
	return b.String()
}

func BenchmarkCompileGroups(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		src := loopGroups(n)
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
		src := loopGroups(n)
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
// loop groups, where map promotion runs all its rounds, under optimized
// CGCM. The counts repeat to within one object from run to run and do
// not depend on host speed, so this gates the host cost no timing can.
// Each bound is two objects above the count when it was set (5628, 9378
// and 37898, after map promotion stopped rebuilding its analyses every
// round and IR verification stopped hashing; 5987, 9939 and 44766
// before), room for that jitter and no more; a change that raises one
// must say why here.
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
	}{{"2mm", srcOf("2mm"), 5630}, {"srad", srcOf("srad"), 9380}, {"groups16", loopGroups(16), 37900}} {
		t.Run(c.program, func(t *testing.T) {
			n := testing.AllocsPerRun(5, func() {
				if _, err := core.Compile(c.program+".c", c.src, core.Options{Strategy: core.CGCMOptimized}); err != nil {
					t.Fatal(err)
				}
			})
			if n > c.bound {
				t.Errorf("compiling %s allocates %.0f objects, more than %.0f", c.program, n, c.bound)
			}
		})
	}
}
