package core_test

import (
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// TestAblationGlueKernels: on srad (whose timestep loop has CPU glue
// between launches), disabling glue kernels must leave more transfers and
// a slower run, while outputs stay identical.
func TestAblationGlueKernels(t *testing.T) {
	p, ok := bench.ByName("srad")
	if !ok {
		t.Fatal("srad missing")
	}
	full, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	noGlue, err := core.CompileAndRun(p.Name, p.Source, core.Options{
		Strategy: core.CGCMOptimized, Ablate: core.PassSet{core.PassGlueKernel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Output != noGlue.Output {
		t.Fatal("glue kernels changed program output")
	}
	if full.GlueKernels == 0 {
		t.Fatal("glue kernels did not fire on srad")
	}
	if full.Stats.NumDtoH >= noGlue.Stats.NumDtoH {
		t.Errorf("glue kernels did not reduce transfers: %d vs %d",
			full.Stats.NumDtoH, noGlue.Stats.NumDtoH)
	}
	if full.Stats.Wall >= noGlue.Stats.Wall {
		t.Errorf("glue kernels did not speed up srad: %.0fus vs %.0fus",
			full.Stats.Wall*1e6, noGlue.Stats.Wall*1e6)
	}
}

// TestAblationAllocaPromotion: cfd's helper holds flux buffers in its
// stack frame; without alloca promotion those maps cannot climb into
// main and out of the timestep loop.
func TestAblationAllocaPromotion(t *testing.T) {
	p, ok := bench.ByName("cfd")
	if !ok {
		t.Fatal("cfd missing")
	}
	full, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	noAP, err := core.CompileAndRun(p.Name, p.Source, core.Options{
		Strategy: core.CGCMOptimized, Ablate: core.PassSet{core.PassAllocaPromo: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Output != noAP.Output {
		t.Fatal("alloca promotion changed program output")
	}
	if full.AllocaPromotions == 0 {
		t.Fatal("alloca promotion did not fire on cfd")
	}
	if full.Stats.NumHtoD >= noAP.Stats.NumHtoD {
		t.Errorf("alloca promotion did not reduce transfers: %d vs %d",
			full.Stats.NumHtoD, noAP.Stats.NumHtoD)
	}
}

// TestAblationMapPromotion: with map promotion off, every optimized
// program degenerates to the unoptimized communication pattern.
func TestAblationMapPromotion(t *testing.T) {
	p, ok := bench.ByName("jacobi-2d-imper")
	if !ok {
		t.Fatal("jacobi missing")
	}
	full, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	noMP, err := core.CompileAndRun(p.Name, p.Source, core.Options{
		Strategy: core.CGCMOptimized, Ablate: core.PassSet{core.PassMapPromo: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	unopt, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMUnoptimized})
	if err != nil {
		t.Fatal(err)
	}
	if full.Output != noMP.Output || full.Output != unopt.Output {
		t.Fatal("outputs diverged")
	}
	if full.Promotions == 0 {
		t.Fatal("map promotion did not fire on jacobi")
	}
	if full.Stats.NumDtoH >= noMP.Stats.NumDtoH {
		t.Errorf("map promotion did not reduce DtoH: %d vs %d",
			full.Stats.NumDtoH, noMP.Stats.NumDtoH)
	}
	// Without map promotion the transfer count matches unoptimized.
	if noMP.Stats.NumDtoH != unopt.Stats.NumDtoH {
		t.Errorf("map-promotion-only ablation (%d DtoH) differs from unoptimized (%d)",
			noMP.Stats.NumDtoH, unopt.Stats.NumDtoH)
	}
}

// TestOptimizationNeverHurts reproduces the paper's §6.3 claim on a
// sample of programs: "Across all 24 applications, communication
// optimizations never reduce performance."
func TestOptimizationNeverHurts(t *testing.T) {
	for _, name := range []string{"gemm", "seidel", "kmeans", "nw", "gramschmidt", "fm"} {
		p, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		un, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMUnoptimized})
		if err != nil {
			t.Fatal(err)
		}
		op, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized})
		if err != nil {
			t.Fatal(err)
		}
		if op.Stats.Wall > un.Stats.Wall*1.001 {
			t.Errorf("%s: optimization hurt: %.0fus -> %.0fus", name,
				un.Stats.Wall*1e6, op.Stats.Wall*1e6)
		}
	}
}

// TestSequentialHasNoGPUActivity sanity-checks the baseline.
func TestSequentialHasNoGPUActivity(t *testing.T) {
	p, _ := bench.ByName("gemm")
	rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.NumKernels != 0 || rep.Stats.BytesHtoD != 0 {
		t.Errorf("sequential run used the GPU: %+v", rep.Stats)
	}
}

// TestInspectorTransfersBytesNotUnits verifies the idealized comparator's
// contract: one byte per touched allocation unit per direction.
func TestInspectorTransfersBytesNotUnits(t *testing.T) {
	src := `
int main() {
	float *a = (float*)malloc(1024 * 8);
	float *b = (float*)malloc(1024 * 8);
	for (int i = 0; i < 1024; i++) a[i] = 1.0;
	for (int i = 0; i < 1024; i++) b[i] = a[i] * 2.0;
	print_float(b[5]);
	free(a); free(b);
	return 0;
}`
	rep, err := core.CompileAndRun("ie.c", src, core.Options{Strategy: core.InspectorExecutor})
	if err != nil {
		t.Fatal(err)
	}
	// Two launches; first touches {a}, second {a, b}: at most 3 HtoD
	// bytes and 2 DtoH bytes.
	if rep.Stats.BytesHtoD > 3 || rep.Stats.BytesDtoH > 2 {
		t.Errorf("inspector moved %d/%d bytes; the oracle moves one per unit",
			rep.Stats.BytesHtoD, rep.Stats.BytesDtoH)
	}
	if rep.Stats.NumKernels != 2 {
		t.Errorf("kernels = %d", rep.Stats.NumKernels)
	}
}

// everyPass is a program on which every pass of the pipeline records
// activity: a helper with a stack buffer the kernels communicate (alloca
// promotion), CPU glue between launches in a timestep loop (glue kernels),
// and maps to promote and overlap.
const everyPass = `
void step(float *a, int n) {
	float tmp[64];
	for (int i = 0; i < n; i++) tmp[i] = a[i] * 0.5;
	for (int i = 0; i < n; i++) a[i] = tmp[i] + 1.0;
}
int main() {
	int n = 64;
	float *a = (float*)malloc(n * sizeof(float));
	float *s = (float*)malloc(2 * sizeof(float));
	for (int i = 0; i < n; i++) a[i] = (float)i;
	s[0] = 1.0;
	for (int t = 0; t < 4; t++) {
		step(a, n);
		s[0] = a[0] * 0.5 + a[63] * 0.25;
		for (int i = 0; i < n; i++) a[i] = a[i] * s[0];
	}
	print_float(a[5]);
	free(a);
	free(s);
	return 0;
}`

// TestReportCountsArePhaseActivity: for every strategy, with and without
// -async, under no ablation and each single-pass ablation, the compile
// schedules exactly the phases §5.4 prescribes, and each per-pass count
// of the Report is the Activity of the phase of that name — 0 when the
// pass was not scheduled.
func TestReportCountsArePhaseActivity(t *testing.T) {
	ablations := []core.Pass{"", core.PassDOALL, core.PassGlueKernel, core.PassAllocaPromo, core.PassMapPromo, core.PassOverlap}
	fired := map[core.Pass]bool{}
	for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
		for _, async := range []bool{false, true} {
			for _, abl := range ablations {
				opts := core.Options{Strategy: s, Async: async}
				if abl != "" {
					opts.Ablate = core.PassSet{abl: true}
				}
				rep, err := core.CompileAndRun("everypass.c", everyPass, opts)
				if err != nil {
					t.Fatalf("%s async=%v ablate=%q: %v", s, async, abl, err)
				}
				want := []string{"parse", "sema", "irbuild", "constfold"}
				sched := func(pass core.Pass, on bool) {
					if on && abl != pass {
						want = append(want, string(pass))
					}
				}
				sched(core.PassDOALL, s >= core.InspectorExecutor)
				sched("commmgmt", s >= core.CGCMUnoptimized)
				sched(core.PassGlueKernel, s == core.CGCMOptimized)
				sched(core.PassAllocaPromo, s == core.CGCMOptimized)
				sched(core.PassMapPromo, s == core.CGCMOptimized)
				sched(core.PassOverlap, s >= core.CGCMUnoptimized && async)
				activity := map[string]int{}
				var got []string
				for _, ph := range rep.Phases {
					got = append(got, ph.Name)
					activity[ph.Name] = ph.Activity
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("%s async=%v ablate=%q: phases %v, want %v", s, async, abl, got, want)
				}
				for _, c := range []struct {
					pass  core.Pass
					count int
				}{
					{core.PassDOALL, rep.DOALLLoopsParallelized},
					{core.PassGlueKernel, rep.GlueKernels},
					{core.PassAllocaPromo, rep.AllocaPromotions},
					{core.PassMapPromo, rep.Promotions},
					{core.PassOverlap, rep.OverlapSites},
				} {
					if c.count != activity[string(c.pass)] {
						t.Errorf("%s async=%v ablate=%q: Report counts %d for %s, its phase recorded %d",
							s, async, abl, c.count, c.pass, activity[string(c.pass)])
					}
					if c.count > 0 {
						fired[c.pass] = true
					}
				}
			}
		}
	}
	// The equalities above are vacuous for a pass that never fires.
	for _, pass := range ablations[1:] {
		if !fired[pass] {
			t.Errorf("%s never recorded activity", pass)
		}
	}
}
