package core_test

import (
	"reflect"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/trace"
)

// TestTracerSpans: attaching a Tracer sink must populate both the sink
// and Report.Spans with the same span slice — Spans is the report-side
// view of the attached tracer, not a second collection.
func TestTracerSpans(t *testing.T) {
	p, ok := bench.ByName("gemm")
	if !ok {
		t.Fatal("gemm missing")
	}
	tr := trace.New()
	rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
		Strategy: core.CGCMOptimized, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) == 0 {
		t.Fatal("Tracer collected no spans")
	}
	if !reflect.DeepEqual(rep.Spans, tr.Spans()) {
		t.Fatalf("Report.Spans diverged from the attached tracer: %d vs %d spans",
			len(rep.Spans), len(tr.Spans()))
	}
	// Without a sink, no spans are collected and the report stays empty —
	// a profile, read from the same event log, does not change that.
	for _, opts := range []core.Options{
		{Strategy: core.CGCMOptimized},
		{Strategy: core.CGCMOptimized, Profile: true},
	} {
		bare, err := core.CompileAndRun(p.Name, p.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Spans != nil {
			t.Fatalf("spans collected without a tracer (Profile %v): %d", opts.Profile, len(bare.Spans))
		}
	}
}

// TestAblateDisablesPasses: every named entry in a PassSet must actually
// suppress its pass — observable as changed stats versus the fully
// optimized run — on a program where the pass matters.
func TestAblateDisablesPasses(t *testing.T) {
	cases := []struct {
		program string
		pass    core.Pass
	}{
		{"gemm", core.PassDOALL},
		{"srad", core.PassGlueKernel},
		{"cfd", core.PassAllocaPromo},
		{"jacobi-2d-imper", core.PassMapPromo},
	}
	for _, tc := range cases {
		t.Run(string(tc.pass), func(t *testing.T) {
			p, ok := bench.ByName(tc.program)
			if !ok {
				t.Fatalf("%s missing", tc.program)
			}
			full, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized})
			if err != nil {
				t.Fatal(err)
			}
			ablated, err := core.CompileAndRun(p.Name, p.Source, core.Options{
				Strategy: core.CGCMOptimized, Ablate: core.PassSet{tc.pass: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Output != ablated.Output {
				t.Error("ablation changed program output")
			}
			if full.Stats == ablated.Stats {
				t.Errorf("ablating %s had no observable effect on %s", tc.pass, tc.program)
			}
		})
	}
}
