package analysis_test

import (
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
		{"groups32", []*ir.Module{managed(b, "groups32", bench.LoopGroups(32))}},
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
