package core_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/metrics"
	"cgcm/internal/trace"
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

// TestDegradedGaugeFollowsTheRun: runtime.degraded is a per-run gauge on a
// registry that may outlive the run (a cgcmd tenant's, cgcmbench
// -metrics-listen's), so a clean run after a degraded one must read 0.
func TestDegradedGaugeFollowsTheRun(t *testing.T) {
	p, ok := bench.ByName("atax")
	if !ok {
		t.Fatal("atax missing from the suite")
	}
	reg := metrics.New()
	for _, c := range []struct {
		gpuMem int64
		want   float64
	}{{64, 1}, {0, 0}} {
		rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
			Strategy: core.CGCMOptimized, GPUMemBytes: c.gpuMem, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RTStats.Degraded != (c.want == 1) {
			t.Fatalf("GPUMemBytes %d: Degraded = %v", c.gpuMem, rep.RTStats.Degraded)
		}
		if got := rep.Metrics.Gauge("runtime.degraded"); got != c.want {
			t.Errorf("GPUMemBytes %d: runtime.degraded = %v, want %v", c.gpuMem, got, c.want)
		}
	}
}

// TestMetricsCatalogueComplete keeps DESIGN.md's instrument table from
// drifting: every instrument a run registers — with every observer on, on
// a faulty finite device with streams, so nothing stays unregistered —
// must be named in the first column of the catalogue table.
func TestMetricsCatalogueComplete(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| instrument | kind | fed | meaning |")
	if !ok {
		t.Fatal("DESIGN.md: metrics catalogue table not found")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var catalogue []*regexp.Regexp
	for _, row := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			continue
		}
		for _, name := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[1], -1) {
			pat := strings.ReplaceAll(regexp.QuoteMeta(name[1]), "<phase>", "[a-z]+")
			catalogue = append(catalogue, regexp.MustCompile("^"+pat+"$"))
		}
	}
	if len(catalogue) < 20 {
		t.Fatalf("DESIGN.md: parsed only %d instrument names from the catalogue", len(catalogue))
	}

	faults, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
		Strategy: core.CGCMOptimized, Async: true, GPUMemBytes: 256 << 10, FaultSpec: faults,
		Tracer: trace.New(), Profile: true, Remarks: true, Metrics: metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range rep.Metrics.Counters {
		names = append(names, c.Name)
	}
	for _, g := range rep.Metrics.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range rep.Metrics.Histograms {
		names = append(names, h.Name)
	}
	if len(names) < 30 {
		t.Fatalf("the run registered only %d instruments: %v", len(names), names)
	}
next:
	for _, name := range names {
		for _, re := range catalogue {
			if re.MatchString(name) {
				continue next
			}
		}
		t.Errorf("instrument %q is registered by a run but missing from DESIGN.md's catalogue table", name)
	}
}
