package doall_test

import (
	"strings"
	"testing"

	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
)

// runDoall compiles src and runs the parallelizer, returning the module
// and result.
func runDoall(t *testing.T, src string) (*ir.Module, *doall.Result) {
	t.Helper()
	f, perrs := parser.Parse("t.c", src)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs)
	}
	info, serrs := sema.Check(f)
	if len(serrs) > 0 {
		t.Fatalf("sema: %v", serrs)
	}
	m, err := irbuild.Build(info)
	if err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	res, err := doall.Run(m, nil)
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	return m, res
}

func wrap(body string) string {
	return `
int main() {
	float *a = (float*)malloc(128 * 8);
	float *b = (float*)malloc(128 * 8);
	float s = 0.0;
	` + body + `
	print_float(s + a[0] + b[0]);
	free(a); free(b);
	return 0;
}`
}

func expectParallel(t *testing.T, body string, want int) *doall.Result {
	t.Helper()
	_, res := runDoall(t, wrap(body))
	if res.LoopsParallelized != want {
		t.Errorf("parallelized %d loops, want %d; rejections: %v",
			res.LoopsParallelized, want, res.Rejections)
	}
	return res
}

func TestSimpleVectorLoop(t *testing.T) {
	expectParallel(t, `for (int i = 0; i < 128; i++) a[i] = (float)i * 2.0;`, 1)
}

func TestStridedAndLeLoops(t *testing.T) {
	expectParallel(t, `for (int i = 0; i < 128; i += 2) a[i] = 1.0;`, 1)
	expectParallel(t, `for (int i = 0; i <= 127; i++) a[i] = 1.0;`, 1)
}

func TestRuntimeBounds(t *testing.T) {
	// Bounds loaded from variables (still invariant) are fine.
	expectParallel(t, `
	int lo = 3;
	int hi = 97;
	for (int i = lo; i < hi; i++) a[i] = b[i] + 1.0;`, 1)
}

func TestReadOtherArrayStencil(t *testing.T) {
	// Loads at offsets of an un-stored array never conflict.
	expectParallel(t, `for (int i = 1; i < 127; i++) a[i] = b[i - 1] + b[i] + b[i + 1];`, 1)
}

func TestSameArrayElementwise(t *testing.T) {
	expectParallel(t, `for (int i = 0; i < 128; i++) a[i] = a[i] * 2.0;`, 1)
}

func TestRejectRecurrence(t *testing.T) {
	// a[i] reads a[i-1]: classic loop-carried flow dependence.
	res := expectParallel(t, `for (int i = 1; i < 128; i++) a[i] = a[i - 1] + 1.0;`, 0)
	if len(res.Rejections) == 0 {
		t.Error("no rejection reason recorded")
	}
}

func TestRejectReduction(t *testing.T) {
	// s is an outer scalar: every iteration stores the same slot.
	expectParallel(t, `for (int i = 0; i < 128; i++) s += a[i];`, 0)
}

func TestRejectBreakAndCall(t *testing.T) {
	expectParallel(t, `for (int i = 0; i < 128; i++) { if (a[i] > 5.0) break; a[i] = 1.0; }`, 0)
	expectParallel(t, `for (int i = 0; i < 128; i++) a[i] = rand_float();`, 0)
}

func TestRejectConflictingStride(t *testing.T) {
	// Two iterations write the same element (i and i+1 patterns touch).
	expectParallel(t, `for (int i = 0; i < 100; i++) { a[i] = 1.0; a[i + 1] = 2.0; }`, 0)
}

func TestPrivateScalarAllowed(t *testing.T) {
	expectParallel(t, `
	for (int i = 0; i < 128; i++) {
		float tmp = b[i] * 2.0;
		tmp = tmp + 1.0;
		a[i] = tmp;
	}`, 1)
}

func TestInnerReductionIntoPrivate(t *testing.T) {
	// The gemm shape: inner sequential reduction into an
	// iteration-private scalar.
	src := `
int main() {
	float *m = (float*)malloc(32 * 32 * 8);
	float *v = (float*)malloc(32 * 8);
	float *out = (float*)malloc(32 * 8);
	for (int i = 0; i < 32 * 32; i++) m[i] = 1.0;
	for (int i = 0; i < 32; i++) v[i] = 2.0;
	for (int i = 0; i < 32; i++) {
		float acc = 0.0;
		for (int j = 0; j < 32; j++) acc += m[i * 32 + j] * v[j];
		out[i] = acc;
	}
	print_float(out[0]);
	free(m); free(v); free(out);
	return 0;
}`
	_, res := runDoall(t, src)
	if res.LoopsParallelized != 3 {
		t.Errorf("parallelized %d, want 3; rejections: %v", res.LoopsParallelized, res.Rejections)
	}
}

func TestColumnSweep(t *testing.T) {
	// Parallel over columns, sequential down each column: the small
	// stride is the parallel one — needs the multi-dimensional test.
	src := `
int main() {
	float *m = (float*)malloc(32 * 32 * 8);
	for (int i = 0; i < 32 * 32; i++) m[i] = 1.0;
	for (int c = 0; c < 32; c++) {
		for (int r = 1; r < 32; r++) {
			m[r * 32 + c] = m[r * 32 + c] + m[(r - 1) * 32 + c];
		}
	}
	print_float(m[5]);
	free(m);
	return 0;
}`
	_, res := runDoall(t, src)
	if res.LoopsParallelized != 2 {
		t.Errorf("parallelized %d, want 2 (init + column sweep); rejections: %v",
			res.LoopsParallelized, res.Rejections)
	}
}

func TestWavefrontShiftedAccess(t *testing.T) {
	// The nw shape: score[i] written, score[i-K] read — shifted
	// one-dimensional accesses with disjoint residuals.
	src := `
int main() {
	float *sc = (float*)malloc(64 * 64 * 8);
	for (int i = 0; i < 64 * 64; i++) sc[i] = 1.0;
	for (int d = 2; d < 100; d++) {
		int lo = imax(1, d - 63);
		int hi = imin(d, 64);
		for (int i = lo; i < hi; i++) {
			sc[i * 64 + (d - i)] = sc[(i - 1) * 64 + (d - i)] + sc[i * 64 + (d - i) - 1];
		}
	}
	print_float(sc[70]);
	free(sc);
	return 0;
}`
	_, res := runDoall(t, src)
	if res.LoopsParallelized != 2 {
		t.Errorf("parallelized %d, want 2 (init + wavefront); rejections: %v",
			res.LoopsParallelized, res.Rejections)
	}
}

func TestRejectInPlaceStencil(t *testing.T) {
	// The seidel shape: in-place neighbor update is NOT DOALL.
	src := `
int main() {
	float *m = (float*)malloc(32 * 32 * 8);
	for (int i = 0; i < 32 * 32; i++) m[i] = 1.0;
	for (int i = 1; i < 31; i++) {
		for (int j = 1; j < 31; j++) {
			m[i * 32 + j] = m[(i - 1) * 32 + j] + m[(i + 1) * 32 + j];
		}
	}
	print_float(m[40]);
	free(m);
	return 0;
}`
	_, res := runDoall(t, src)
	if res.LoopsParallelized != 1 {
		t.Errorf("parallelized %d, want 1 (only the init); rejections: %v",
			res.LoopsParallelized, res.Rejections)
	}
}

func TestOutlinedKernelShape(t *testing.T) {
	m, res := runDoall(t, wrap(`for (int i = 0; i < 128; i++) a[i] = b[i] + 1.0;`))
	if res.LoopsParallelized != 1 {
		t.Fatalf("not parallelized: %v", res.Rejections)
	}
	var kernel *ir.Func
	for _, f := range m.Funcs {
		if f.Kernel {
			kernel = f
		}
	}
	if kernel == nil {
		t.Fatal("no kernel created")
	}
	if !strings.HasPrefix(kernel.Name, "main__doall") {
		t.Errorf("kernel name %q", kernel.Name)
	}
	if len(kernel.Params) < 2 {
		t.Fatalf("kernel has %d params, want at least lo/hi", len(kernel.Params))
	}
	// The kernel must use tid() and be guarded.
	hasTid, hasGuard := false, false
	kernel.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpIntrinsic && in.Name == "tid" {
			hasTid = true
		}
		if in.Op == ir.OpLt {
			hasGuard = true
		}
	})
	if !hasTid || !hasGuard {
		t.Errorf("kernel missing tid (%v) or bound guard (%v)", hasTid, hasGuard)
	}
	// Exactly one launch site in main.
	launches := 0
	m.Func("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLaunch {
			launches++
		}
	})
	if launches != 1 {
		t.Errorf("launches = %d", launches)
	}
	if err := m.Verify(); err != nil {
		t.Errorf("module invalid after outlining: %v", err)
	}
}

func TestNestedOutermostWins(t *testing.T) {
	// Both levels are DOALL; the outermost must be taken (one kernel,
	// the inner loop serialized inside each thread).
	src := `
int main() {
	float *m = (float*)malloc(16 * 16 * 8);
	for (int i = 0; i < 16; i++) {
		for (int j = 0; j < 16; j++) m[i * 16 + j] = (float)(i + j);
	}
	print_float(m[20]);
	free(m);
	return 0;
}`
	mod, res := runDoall(t, src)
	if res.LoopsParallelized != 1 {
		t.Errorf("parallelized %d, want 1 (outermost only): %v", res.LoopsParallelized, res.Rejections)
	}
	kernels := 0
	for _, f := range mod.Funcs {
		if f.Kernel {
			kernels++
		}
	}
	if kernels != 1 {
		t.Errorf("kernels = %d, want 1", kernels)
	}
}

// initThenTimestep is four loops: an init loop, and a timestep loop
// (rejected: it carries a dependence through a and b) around two DOALL
// loops.
const initThenTimestep = `
int main() {
	float *a = (float*)malloc(32 * 8);
	float *b = (float*)malloc(32 * 8);
	for (int i = 0; i < 32; i++) a[i] = (float)i;
	for (int t = 0; t < 3; t++) {
		for (int i = 0; i < 32; i++) b[i] = a[i] + 1.0;
		for (int i = 0; i < 32; i++) a[i] = b[i] * 0.5;
	}
	print_float(a[3]);
	free(a); free(b);
	return 0;
}`

func TestEveryLoopJudgedOnce(t *testing.T) {
	// The restart driver re-judged the timestep loop after each outline
	// and counted it each time (7 for these 4 loops), repeating its
	// rejection line once per restart.
	_, res := runDoall(t, initThenTimestep)
	if res.LoopsParallelized != 3 {
		t.Fatalf("parallelized %d loops, want 3; rejections: %v", res.LoopsParallelized, res.Rejections)
	}
	if res.LoopsFound != 4 {
		t.Errorf("LoopsFound = %d, want 4: one verdict per loop", res.LoopsFound)
	}
	// One line per (loop, reason): the timestep loop's dependence, and
	// the launch it contains once its first child is outlined.
	if len(res.Rejections) != 2 {
		t.Fatalf("Rejections = %q, want 2 lines", res.Rejections)
	}
	if !strings.Contains(res.Rejections[0], "loop-carried dependence") ||
		!strings.Contains(res.Rejections[1], "loop body launches a kernel") {
		t.Errorf("Rejections = %q, want the dependence, then the launch", res.Rejections)
	}
	if res.Rejections[0][:strings.Index(res.Rejections[0], ":")] != res.Rejections[1][:strings.Index(res.Rejections[1], ":")] {
		t.Errorf("Rejections = %q name two loops, want both lines about the timestep loop", res.Rejections)
	}
}

func TestContinueInsideParallelLoop(t *testing.T) {
	// The front end leaves an unreachable block behind the continue; it
	// branches into the loop and must leave the function with it.
	m, res := runDoall(t, wrap(`
	for (int i = 0; i < 128; i++) {
		if (i % 2 == 0) continue;
		a[i] = 1.0;
	}`))
	if res.LoopsParallelized != 1 {
		t.Fatalf("parallelized %d loops, want 1; rejections: %v", res.LoopsParallelized, res.Rejections)
	}
	if err := m.Verify(); err != nil {
		t.Errorf("module invalid after outlining: %v", err)
	}
}
