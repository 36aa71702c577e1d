package machine_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// BenchmarkRetime measures the clock alone: one replay of a recorded run's
// verbs (Retime) at the default cost model, for a communication-bound
// program (lud unoptimized on streams, a run_comm class) and a
// compute-bound one (jacobi-2d-imper optimized, a run_compute class).
// ns/verb is the number to set against the host time of re-running the
// program.
func BenchmarkRetime(b *testing.B) {
	for _, c := range []struct {
		prog, config string
		opts         core.Options
	}{
		{"lud", "unopt-async", core.Options{Strategy: core.CGCMUnoptimized, Async: true}},
		{"jacobi-2d-imper", "opt", core.Options{Strategy: core.CGCMOptimized}},
	} {
		b.Run(c.prog+"/"+c.config, func(b *testing.B) {
			p, _ := bench.ByName(c.prog)
			c.opts.Tracer = trace.New()
			rep, err := core.CompileAndRun(p.Name, p.Source, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			cost := machine.DefaultCostModel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if machine.Retime(rep.Verbs, cost) != rep.Stats {
					b.Fatal("retime differs from the run")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rep.Verbs)), "ns/verb")
			b.ReportMetric(float64(len(rep.Verbs)), "verbs")
		})
	}
}
