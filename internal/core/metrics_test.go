package core_test

import (
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/metrics"
)

// TestMetricsEndToEnd attaches a registry to a full compile+run and
// cross-checks the snapshot against the machine's own statistics: the
// instruments must agree exactly with the counters the machine already
// keeps, across every instrumented layer.
func TestMetricsEndToEnd(t *testing.T) {
	reg := metrics.New()
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
		Strategy: core.CGCMUnoptimized,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("Options.Metrics set but Report.Metrics is nil")
	}
	s := rep.Metrics
	st := rep.Stats

	// Machine layer: counters and transfer histograms mirror Stats.
	if got := s.Counter("machine.kernel.launches"); got != st.NumKernels {
		t.Errorf("machine.kernel.launches = %d, Stats.NumKernels = %d", got, st.NumKernels)
	}
	h2d := s.Histogram("machine.xfer.htod_bytes")
	if h2d == nil || h2d.Count != st.NumHtoD || int64(h2d.Sum) != st.BytesHtoD {
		t.Errorf("machine.xfer.htod_bytes = %+v, want count %d sum %d", h2d, st.NumHtoD, st.BytesHtoD)
	}
	d2h := s.Histogram("machine.xfer.dtoh_bytes")
	if d2h == nil || d2h.Count != st.NumDtoH || int64(d2h.Sum) != st.BytesDtoH {
		t.Errorf("machine.xfer.dtoh_bytes = %+v, want count %d sum %d", d2h, st.NumDtoH, st.BytesDtoH)
	}
	if kd := s.Histogram("machine.kernel.duration_seconds"); kd == nil || kd.Count != st.NumKernels {
		t.Errorf("machine.kernel.duration_seconds = %+v, want count %d", kd, st.NumKernels)
	}

	// Runtime layer: the unoptimized system maps and unmaps the vector
	// around every launch, so these must all have fired, and copy counts
	// mirror the machine's transfer counts (the runtime drives every copy).
	for _, name := range []string{"runtime.map.calls", "runtime.unmap.calls", "runtime.release.calls"} {
		if s.Counter(name) == 0 {
			t.Errorf("%s never incremented", name)
		}
	}
	if got := s.Counter("runtime.htod.copies"); got != st.NumHtoD {
		t.Errorf("runtime.htod.copies = %d, Stats.NumHtoD = %d", got, st.NumHtoD)
	}
	if got := s.Counter("runtime.dtoh.copies"); got != st.NumDtoH {
		t.Errorf("runtime.dtoh.copies = %d, Stats.NumDtoH = %d", got, st.NumDtoH)
	}

	// Whole-run gauges.
	if got := s.Gauge("machine.wall_seconds"); got != st.Wall {
		t.Errorf("machine.wall_seconds = %v, Stats.Wall = %v", got, st.Wall)
	}
	if got := s.Gauge("machine.gpu_ops"); int64(got) != st.GPUOps {
		t.Errorf("machine.gpu_ops = %v, Stats.GPUOps = %d", got, st.GPUOps)
	}
	if s.Gauge("interp.steps") <= 0 {
		t.Error("interp.steps not recorded")
	}
	if got := s.Gauge("runtime.live_units"); got != float64(rep.RTStats.LiveUnits) {
		t.Errorf("runtime.live_units = %v, RTStats.LiveUnits = %d", got, rep.RTStats.LiveUnits)
	}

	// Compiler layer: per-phase host-time gauges exist for at least the
	// communication-management pass that this strategy must run.
	if s.Gauge("compile.commmgmt.host_ns") <= 0 {
		t.Error("compile.commmgmt.host_ns not recorded")
	}
}

// TestMetricsOffByDefault ensures no snapshot is attached when no
// registry is provided.
func TestMetricsOffByDefault(t *testing.T) {
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Fatal("Report.Metrics set without Options.Metrics")
	}
}

// TestStepsGaugeCountsInstructions: interp.steps is instructions
// executed, not step-pool draws — a program that executes one instruction
// reports 1, not a batch — and the same for any engine worker count.
func TestStepsGaugeCountsInstructions(t *testing.T) {
	steps := func(src string, o core.Options) float64 {
		t.Helper()
		o.Metrics = metrics.New()
		rep, err := core.CompileAndRun("steps.c", src, o)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Metrics.Gauge("interp.steps")
	}
	if got := steps(`int main() { return 0; }`, core.Options{Strategy: core.Sequential}); got != 1 {
		t.Errorf("interp.steps = %v for a program that executes one ret", got)
	}
	one := steps(hotLoop, core.Options{Strategy: core.CGCMOptimized, Workers: 1})
	four := steps(hotLoop, core.Options{Strategy: core.CGCMOptimized, Workers: 4})
	if one != four || one <= 0 {
		t.Errorf("interp.steps = %v with 1 worker, %v with 4", one, four)
	}
}
