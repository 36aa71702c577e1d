package core_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// BenchmarkPipeline times each pass of the pipeline on its own, over
// srad, the largest Rodinia program, and 16 loop groups, where map
// promotion runs all its rounds: each iteration compiles the module up
// to the pass with the timer stopped and times the pass alone, so ns/op
// and allocs/op are the pass's. Async is on, so every row runs.
func BenchmarkPipeline(b *testing.B) {
	srad, _ := bench.ByName("srad")
	programs := []struct{ name, src string }{{"srad", srad.Source}, {"groups16", bench.LoopGroups(16)}}
	opts := core.Options{Strategy: core.CGCMOptimized, Async: true}
	for _, row := range core.PipelineRows() {
		for _, prog := range programs {
			b.Run(string(row.Name())+"/"+prog.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p, err := row.Prepare(prog.name+".c", prog.src, opts)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := row.Run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
