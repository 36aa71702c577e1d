package mappromo_test

import (
	"strings"
	"testing"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/mappromo"
)

// prepare compiles src and runs communication management (the pass that
// map promotion consumes).
func prepare(t *testing.T, src string) *ir.Module {
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
	if _, err := commmgmt.Run(m, nil); err != nil {
		t.Fatalf("commmgmt: %v", err)
	}
	return m
}

const hoistable = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int t = 0; t < 10; t++) {
		k<<<1, 64>>>(v, 64);
	}
	float s = 0.0;
	for (int i = 0; i < 64; i++) s += v[i];
	print_float(s);
	free(v);
	return 0;
}`

// blockedByRead reads v on the CPU inside the launch loop.
const blockedByRead = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
int main() {
	float *v = (float*)malloc(64 * 8);
	float s = 0.0;
	for (int t = 0; t < 5; t++) {
		k<<<1, 64>>>(v, 64);
		s += v[0];
	}
	print_float(s);
	free(v);
	return 0;
}`

// blockedByWrite writes v on the CPU inside the launch loop.
const blockedByWrite = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] * 2.0;
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int t = 0; t < 5; t++) {
		v[0] = (float)t;
		k<<<1, 64>>>(v, 64);
	}
	print_float(v[1]);
	free(v);
	return 0;
}`

// helperCall launches from a helper that main calls in a loop.
const helperCall = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
void helper(float *v) {
	k<<<1, 64>>>(v, 64);
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int t = 0; t < 8; t++) {
		helper(v);
	}
	print_float(v[0]);
	free(v);
	return 0;
}`

// recursiveWalk launches from a recursive function.
const recursiveWalk = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
void walk(float *v, int depth) {
	if (depth <= 0) return;
	k<<<1, 64>>>(v, 64);
	walk(v, depth - 1);
}
int main() {
	float *v = (float*)malloc(64 * 8);
	walk(v, 4);
	print_float(v[0]);
	free(v);
	return 0;
}`

// nestedLoops launches from a two-deep loop nest.
const nestedLoops = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int o = 0; o < 4; o++) {
		for (int t = 0; t < 4; t++) {
			k<<<1, 64>>>(v, 64);
		}
	}
	print_float(v[0]);
	free(v);
	return 0;
}`

// interiorPointer launches on a pointer into the middle of its unit
// that varies with the loop.
const interiorPointer = `
__global__ void k(float *w, int n) {
	int i = tid();
	if (i < n) w[i * 8] = w[i * 8] + 1.0;
}
int main() {
	float *big = (float*)malloc(64 * 8 * 8);
	for (int d = 0; d < 8; d++) {
		float *w = big + d;
		k<<<1, 64>>>(w, 64);
	}
	print_float(big[3]);
	free(big);
	return 0;
}`

// loopDepthOf returns the loop depth of the block holding in.
func loopDepthOf(f *ir.Func, in *ir.Instr) int {
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)
	depth := 0
	for _, l := range forest.All {
		if l.Blocks[in.Block] && l.Depth > depth {
			depth = l.Depth
		}
	}
	return depth
}

func TestHoistsMapOutOfLoop(t *testing.T) {
	m := prepare(t, hoistable)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promotions == 0 {
		t.Fatal("no promotions performed")
	}
	main := m.Func("main")
	main.Renumber()

	// There must now be a map at loop depth 0 (the hoisted one) and no
	// unmap at loop depth > 0 (interior DtoH deleted).
	var hoistedMaps, interiorUnmaps, exitUnmaps int
	main.Instrs(func(in *ir.Instr) {
		if !in.IsRuntimeCall("") {
			return
		}
		d := loopDepthOf(main, in)
		switch {
		case in.IsRuntimeCall("map") && d == 0:
			hoistedMaps++
		case in.IsRuntimeCall("unmap") && d > 0:
			interiorUnmaps++
		case in.IsRuntimeCall("unmap") && d == 0:
			exitUnmaps++
		}
	})
	if hoistedMaps == 0 {
		t.Error("no map outside the loop")
	}
	if interiorUnmaps != 0 {
		t.Errorf("%d unmaps remain inside the loop (DtoH not deleted)", interiorUnmaps)
	}
	if exitUnmaps == 0 {
		t.Error("no unmap after the loop")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("invalid after promotion: %v", err)
	}
}

func TestIdempotent(t *testing.T) {
	m := prepare(t, hoistable)
	res1, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	count1 := countRuntimeCalls(m)
	res2, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Promotions >= res1.Promotions && res2.Promotions > 0 {
		t.Errorf("second run promoted again: %d then %d", res1.Promotions, res2.Promotions)
	}
	if c := countRuntimeCalls(m); c != count1 {
		t.Errorf("second run changed call count: %d -> %d", count1, c)
	}
}

func countRuntimeCalls(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.IsRuntimeCall("") {
				n++
			}
		})
	}
	return n
}

func TestBlockedByCPURead(t *testing.T) {
	// The CPU reads v inside the loop: promotion must NOT fire (the CPU
	// needs a fresh copy every iteration).
	m := prepare(t, blockedByRead)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	main := m.Func("main")
	interiorUnmaps := 0
	main.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("unmap") && loopDepthOf(main, in) > 0 {
			interiorUnmaps++
		}
	})
	if interiorUnmaps == 0 {
		t.Errorf("interior unmap deleted despite CPU read (promotions=%d)", res.Promotions)
	}
}

func TestBlockedByCPUWrite(t *testing.T) {
	// The CPU writes v inside the loop: the GPU copy would go stale.
	m := prepare(t, blockedByWrite)
	if _, err := mappromo.Run(m, nil); err != nil {
		t.Fatal(err)
	}
	main := m.Func("main")
	interiorMapsurvives := false
	main.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("unmap") && loopDepthOf(main, in) > 0 {
			interiorMapsurvives = true
		}
	})
	if !interiorMapsurvives {
		t.Error("promotion fired despite CPU write in region")
	}
}

func TestFunctionRegionHoistsToCaller(t *testing.T) {
	m := prepare(t, helperCall)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FuncPromotions == 0 {
		t.Error("no function-region promotions")
	}
	// After convergence the map must sit in main OUTSIDE the t loop.
	main := m.Func("main")
	main.Renumber()
	outerMaps := 0
	main.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("map") && loopDepthOf(main, in) == 0 {
			outerMaps++
		}
	})
	if outerMaps == 0 {
		t.Error("map did not climb into main above the loop")
	}
	// helper must no longer unmap inside.
	helper := m.Func("helper")
	helperUnmaps := 0
	helper.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("unmap") {
			helperUnmaps++
		}
	})
	if helperUnmaps != 0 {
		t.Errorf("helper still unmaps (%d) after function promotion", helperUnmaps)
	}
}

func TestRecursiveFunctionNotEligible(t *testing.T) {
	m := prepare(t, recursiveWalk)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FuncPromotions != 0 {
		t.Errorf("recursive function promoted %d times (must be 0)", res.FuncPromotions)
	}
}

func TestNestedLoopsConverge(t *testing.T) {
	// Maps must climb both loop levels across convergence rounds.
	m := prepare(t, nestedLoops)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Errorf("expected multiple convergence rounds, got %d", res.Iterations)
	}
	main := m.Func("main")
	main.Renumber()
	depth0Maps := 0
	main.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("map") && loopDepthOf(main, in) == 0 {
			depth0Maps++
		}
	})
	if depth0Maps == 0 {
		t.Error("map did not climb out of the loop nest")
	}
}

func TestCommentsMarkProvenance(t *testing.T) {
	m := prepare(t, hoistable)
	if _, err := mappromo.Run(m, nil); err != nil {
		t.Fatal(err)
	}
	found := false
	m.Func("main").Instrs(func(in *ir.Instr) {
		if strings.Contains(in.Comment, "map promotion") {
			found = true
		}
	})
	if !found {
		t.Error("no provenance comments for dumps")
	}
}

func TestInteriorPointerPromotion(t *testing.T) {
	// The launch argument is a pointer into the middle of the unit and
	// varies with the outer loop — but the unit does not. Map promotion
	// must peel the arithmetic and hoist the base (C99: pointer
	// arithmetic cannot leave an allocation unit).
	m := prepare(t, interiorPointer)
	res, err := mappromo.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopPromotions == 0 {
		t.Fatal("interior-pointer candidate not promoted")
	}
	main := m.Func("main")
	main.Renumber()
	interiorUnmaps := 0
	main.Instrs(func(in *ir.Instr) {
		if in.IsRuntimeCall("unmap") && loopDepthOf(main, in) > 0 {
			interiorUnmaps++
		}
	})
	if interiorUnmaps != 0 {
		t.Errorf("%d interior unmaps remain", interiorUnmaps)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}
