package critpath_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/trace"
)

// BenchmarkAnalyze measures the critical-path analysis alone: one Analyze
// of a recorded communication-bound run's spans (nw unoptimized on
// streams, a run_comm class). ns/span is the number to set against the
// host time of the run itself.
func BenchmarkAnalyze(b *testing.B) {
	p, _ := bench.ByName("nw")
	rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
		Strategy: core.CGCMUnoptimized, Async: true, Tracer: trace.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := critpath.Analyze(rep.Spans, rep.Stats.Wall); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rep.Spans)), "ns/span")
	b.ReportMetric(float64(len(rep.Spans)), "spans")
}
