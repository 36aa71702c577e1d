package core_test

import (
	"fmt"
	"slices"
	"testing"

	"cgcm/internal/analysis"
	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/ir"
)

// The oracle for the points-to solution the pipeline carries: after
// every pass, the solution carried past it must give the answers a
// fresh BuildPointsTo of the rewritten module gives — for every value of
// every CPU function, the contents of every global and CPU-side object,
// and, up to communication management, every kernel value and object
// (after it, map results replace launch arguments, a rebuild gives
// kernel parameters nothing, and no pass asks about a kernel value).

// callChain is the analysis package's mod/ref program: effects three
// calls deep, a cycle, a pointer returned through two functions, a
// global.
const callChain = `
float total[4];
float *pick(float *p, float *q, int k) { if (k > 0) return p; return q; }
float *relay(float *p, float *q, int k) { return pick(q, p, k); }
void leaf(float *p) { p[0] = p[1] + 1.0; }
void mid(float *p) { leaf(p); total[0] = p[0]; }
void top(float *p) { mid(p); }
void ping(float *p, int n);
void pong(float *p, int n) { if (n > 0) ping(p, n - 1); }
void ping(float *p, int n) { p[2] = 1.0; pong(p, n); }
int main() {
	float *a = (float*)malloc(64);
	float *b = (float*)malloc(64);
	float **cell = (float**)malloc(8);
	cell[0] = relay(a, b, 1);
	float *c = cell[0];
	top(c);
	ping(b, 3);
	for (int i = 0; i < 8; i++) a[i] = b[i] * 2.0;
	print_float(a[0] + total[0]);
	free(a); free(b);
	return 0;
}`

// slotWrittenTwice and loopThenFunction are map promotion's adversarial
// programs: a hoisted clone that is judged itself, and a clone whose
// set decides the round a function promotion happens in.
const slotWrittenTwice = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
int main() {
	int n = 64;
	float *a = (float*)malloc(64 * 8);
	float *b = (float*)malloc(64 * 8);
	float *p = a;
	if (n > 32) p = b;
	for (int o = 0; o < 3; o++) {
		for (int t = 0; t < 4; t++) {
			k<<<1, 64>>>(p, n);
		}
	}
	print_float(a[0] + b[1]);
	free(a); free(b);
	return 0;
}`

const loopThenFunction = `
float g[256];
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
void step(int n) {
	for (int t = 0; t < 4; t++) {
		k<<<1, 64>>>(g + 64, n);
	}
}
int main() {
	for (int r = 0; r < 3; r++) step(64);
	print_float(g[70]);
	return 0;
}`

// mixedMemory launches a hand-written kernel on a device buffer and on
// a host array whose pointer lives in a heap cell, with a glue region
// between launches and, after them, a DOALL loop whose induction
// variable is a pointer.
const mixedMemory = `
__global__ void scale(float *d, float *h, int n) {
	int i = tid();
	if (i < n) { float *row = h; d[i] = row[i] * 2.0; }
}
int main() {
	float *h = (float*)malloc(32 * 8);
	float **cell = (float**)malloc(8);
	float *d = (float*)cuda_malloc(32 * 8);
	for (int i = 0; i < 32; i++) h[i] = (float)i;
	cell[0] = h;
	for (int t = 0; t < 3; t++) {
		scale<<<1, 32>>>(d, cell[0], 32);
		h[0] = h[0] + 1.0;
		scale<<<1, 32>>>(d, h, 32);
	}
	float *e = h + 32;
	for (float *q = h; q < e; q = q + 1) *q = *q * 0.5;
	cuda_memcpy_d2h(h, d, 32 * 8);
	cuda_free(d);
	print_float(h[3]);
	free(h); free(cell);
	return 0;
}`

// siteOf names an object by its allocation site, which two solutions of
// one module share.
func siteOf(o *analysis.Object) any {
	switch {
	case o.Global != nil:
		return o.Global
	case o.Heap != nil:
		return o.Heap
	}
	return o.Alloca
}

func sameSites(a, b analysis.ObjSet) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[any]bool, len(a))
	for o := range a {
		in[siteOf(o)] = true
	}
	for o := range b {
		if !in[siteOf(o)] {
			return false
		}
	}
	return true
}

// solutionDiffs lists how carried differs from a fresh build of m.
func solutionDiffs(m *ir.Module, carried *analysis.PointsTo, kernels bool) []string {
	fresh := analysis.BuildPointsTo(m)
	var diffs []string
	value := func(v ir.Value, what string) {
		if c, f := carried.PTS(v), fresh.PTS(v); !sameSites(c, f) {
			diffs = append(diffs, fmt.Sprintf("%s: carried {%s}, rebuilt {%s}", what, c.Labels(), f.Labels()))
		}
	}
	contents := func(c, f *analysis.Object, what string) {
		if c == nil || f == nil {
			diffs = append(diffs, fmt.Sprintf("%s: carried object %v, rebuilt %v", what, c, f))
			return
		}
		cc, fc := carried.Contents(analysis.ObjSet{c: true}), fresh.Contents(analysis.ObjSet{f: true})
		if !sameSites(cc, fc) {
			diffs = append(diffs, fmt.Sprintf("contents of %s: carried {%s}, rebuilt {%s}", what, cc.Labels(), fc.Labels()))
		}
	}
	for _, g := range m.Globals {
		ref := &ir.GlobalRef{Global: g}
		var c, f *analysis.Object
		for o := range carried.PTS(ref) {
			c = o
		}
		for o := range fresh.PTS(ref) {
			f = o
		}
		contents(c, f, "@"+g.Name)
	}
	for _, fn := range m.Funcs {
		if fn.Kernel && !kernels {
			continue
		}
		for _, p := range fn.Params {
			value(p, fn.Name+"/"+p.Name)
		}
		fn.Instrs(func(in *ir.Instr) {
			if in.Op.HasResult() {
				value(in, fn.Name+"/"+in.String())
			}
			if c, f := carried.ObjectOf(in), fresh.ObjectOf(in); c != nil || f != nil {
				contents(c, f, fn.Name+"/"+in.String())
			}
		})
	}
	return diffs
}

// glueParamDiffs checks the parameters of the kernels outlined since m
// had funcs functions. Communication management has replaced their
// launch arguments with map results, so a rebuild no longer sees what
// one made when the pass read them did: each parameter has the set of
// the host value its argument maps.
func glueParamDiffs(m *ir.Module, pt *analysis.PointsTo, funcs int) []string {
	var diffs []string
	for _, fn := range m.Funcs {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpLaunch || !slices.Contains(m.Funcs[funcs:], in.Callee) {
				return
			}
			for i, p := range in.Callee.Params {
				arg := in.Args[i+2]
				if mp, ok := arg.(*ir.Instr); ok && mp.IsRuntimeCall("") {
					arg = mp.Args[0]
				}
				if !sameSites(pt.PTS(p), pt.PTS(arg)) {
					diffs = append(diffs, fmt.Sprintf("%s/%s: {%s}, its argument {%s}", in.Callee.Name, p.Name, pt.PTS(p).Labels(), pt.PTS(arg).Labels()))
				}
			}
		})
	}
	return diffs
}

// checkCarried compiles src under opts one pass at a time and compares
// the solution carried past each pass with a rebuild. It returns the
// number of points-to builds the compile made.
func checkCarried(t *testing.T, name, src string, opts core.Options) (builds int) {
	t.Helper()
	rows := core.PipelineRows()
	p, err := rows[0].Prepare(name+".c", src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kernels := true
	for _, row := range rows {
		if !row.Scheduled(opts) {
			continue
		}
		held, funcs := p.PointsTo(), len(p.Module.Funcs)
		if err := row.Run(p); err != nil {
			t.Fatalf("%s: %s: %v", name, row.Name(), err)
		}
		pt := p.PointsTo()
		switch {
		case held != nil && pt != held && (row.Name() != core.PassAllocaPromo || pt != nil):
			t.Errorf("%s: %s replaced the solution it was handed", name, row.Name())
		case held == nil && pt != nil:
			builds++
		}
		kernels = kernels && row.Name() != "commmgmt"
		if pt == nil {
			continue
		}
		for _, d := range solutionDiffs(p.Module, pt, kernels) {
			t.Errorf("%s after %s: %s", name, row.Name(), d)
		}
		if row.Name() == core.PassGlueKernel {
			for _, d := range glueParamDiffs(p.Module, pt, funcs) {
				t.Errorf("%s after %s: %s", name, row.Name(), d)
			}
		}
	}
	return builds
}

func TestCarriedPointsToMatchesRebuild(t *testing.T) {
	ablations := []core.PassSet{nil}
	for _, ps := range []core.Pass{core.PassDOALL, core.PassGlueKernel, core.PassAllocaPromo, core.PassMapPromo, core.PassOverlap} {
		ablations = append(ablations, core.PassSet{ps: true})
	}
	for _, prog := range bench.All() {
		for _, async := range []bool{false, true} {
			for _, ab := range ablations {
				opts := core.Options{Strategy: core.CGCMOptimized, Async: async, Ablate: ab}
				builds := checkCarried(t, fmt.Sprintf("%s/async=%v/ablate=%s", prog.Name, async, ab), prog.Source, opts)
				if !async && ab == nil {
					t.Logf("%s: %d points-to build(s)", prog.Name, builds)
				}
			}
		}
	}
	others := []struct{ name, src string }{
		{"groups3", bench.LoopGroups(3)}, {"groups16", bench.LoopGroups(16)}, {"groups32", bench.LoopGroups(32)},
		{"callchain", callChain}, {"slot-written-twice", slotWrittenTwice},
		{"loop-then-function", loopThenFunction}, {"mixed-memory", mixedMemory},
	}
	for _, fp := range bench.FeaturePrograms() {
		others = append(others, struct{ name, src string }{fp.Feature, fp.Source})
	}
	for _, prog := range others {
		for _, async := range []bool{false, true} {
			builds := checkCarried(t, fmt.Sprintf("%s/async=%v", prog.name, async), prog.src, core.Options{Strategy: core.CGCMOptimized, Async: async})
			if !async {
				t.Logf("%s: %d points-to build(s)", prog.name, builds)
			}
		}
	}
}
