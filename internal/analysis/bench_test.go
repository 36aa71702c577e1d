package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/analysis"
	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/ir"
)

// Per-layer benchmarks of the two whole-module builders every pass pays
// for. The modules are the ones map promotion sees (DOALL and
// communication management already run): the 24 suite programs as one
// operation, and a generated 32-group program. Exported API only, so the
// same file measures any commit.

// loopGroups is the loop-group generator of internal/core/bench_test.go.
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

// managed compiles src through DOALL and communication management.
func managed(tb testing.TB, name, src string) *ir.Module {
	tb.Helper()
	p, err := core.Compile(name, src, core.Options{Strategy: core.CGCMUnoptimized})
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return p.Module
}

type benchSet struct {
	name string
	mods []*ir.Module
}

func benchSets(b *testing.B) []benchSet {
	var suite []*ir.Module
	for _, p := range bench.All() {
		suite = append(suite, managed(b, p.Name, p.Source))
	}
	return []benchSet{
		{"suite", suite},
		{"groups32", []*ir.Module{managed(b, "groups32", loopGroups(32))}},
	}
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkPT *analysis.PointsTo
	sinkMR *analysis.ModRef
)

func BenchmarkBuildPointsTo(b *testing.B) {
	for _, set := range benchSets(b) {
		mods := set.mods
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range mods {
					sinkPT = analysis.BuildPointsTo(m)
				}
			}
		})
	}
}

func BenchmarkBuildModRef(b *testing.B) {
	for _, set := range benchSets(b) {
		mods := set.mods
		pts := make([]*analysis.PointsTo, len(mods))
		cgs := make([]*analysis.CallGraph, len(mods))
		for i, m := range mods {
			pts[i], cgs[i] = analysis.BuildPointsTo(m), analysis.BuildCallGraph(m)
		}
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, m := range mods {
					sinkMR = analysis.BuildModRef(m, pts[j], cgs[j])
				}
			}
		})
	}
}
