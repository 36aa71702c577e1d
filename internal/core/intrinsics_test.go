package core_test

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/passes/mappromo"
)

// builtinCall renders a statement that calls row with arguments of its
// declared kinds and keeps its result alive by storing it through o. The
// variables are the ones both programs of TestEveryBuiltinChecksAndRuns
// declare: int n, float x, char *p (a host unit), char *d (a cuda_malloc
// unit) and int *o.
func builtinCall(row *ir.Intrinsic) string {
	var args []string
	for _, k := range row.Params {
		args = append(args, map[ir.Kind]string{ir.KInt: "n", ir.KFloat: "x", ir.KPtr: "p", ir.KStr: "p"}[k])
	}
	call := row.Name + "(" + strings.Join(args, ", ") + ")"
	// The manual-communication builtins take device pointers.
	switch row.ID {
	case ir.InCudaFree:
		call = row.Name + "(d)"
	case ir.InCudaMemcpyH2D:
		call = row.Name + "(d, p, n)"
	case ir.InCudaMemcpyD2H:
		call = row.Name + "(p, d, n)"
	}
	switch row.Result {
	case ir.KVoid:
		return call + ";"
	case ir.KPtr:
		return "char *q = (char*)" + call + ";"
	}
	return "o[0] = (int)" + call + ";"
}

// TestEveryBuiltinChecksAndRuns walks ir.Intrinsics: every source-callable
// row type-checks with its declared signature where its placement allows
// it, is refused with sema's message where it does not, and a program
// that calls it runs to completion — so no row reaches lowering's
// "unknown intrinsic" fault and no id lacks an executor.
func TestEveryBuiltinChecksAndRuns(t *testing.T) {
	const onCPU = `
int main() {
	int n = 2;
	float x = 2.0;
	char *p = (char*)malloc(64);
	char *d = (char*)cuda_malloc(64);
	int *o = (int*)malloc(8);
	p[0] = 0;
	%s
	return 0;
}`
	const inKernel = `
__global__ void k(char *p, char *d, int *o, int n, float x) {
	%s
}
int main() {
	char *p = (char*)malloc(64);
	char *d = (char*)cuda_malloc(64);
	int *o = (int*)malloc(8);
	p[0] = 0;
	k<<<1, 1>>>(p, d, o, 2, 2.0);
	return 0;
}`
	for i := range ir.Intrinsics {
		row := &ir.Intrinsics[i]
		if row.Verb.Op != 0 {
			continue // not callable from source; TestRuntimeRowsExecute
		}
		if b := sema.Builtins[row.Name]; b == nil || len(b.Params) != len(row.Params) {
			t.Errorf("%s: sema.Builtins has %+v", row.Name, b)
			continue
		}
		for _, place := range []struct {
			name, src, refusal string
			allowed            bool
		}{
			{"cpu", onCPU, row.Name + " may only be called inside a kernel", row.Place != ir.KernelOnly},
			{"kernel", inKernel, row.Name + " may not be called inside a kernel", row.Place != ir.CPUOnly},
		} {
			src := fmt.Sprintf(place.src, builtinCall(row))
			_, err := core.CompileAndRun(row.Name+".c", src, core.Options{Strategy: core.CGCMOptimized})
			switch {
			case place.allowed && err != nil:
				t.Errorf("%s, %s: %v", row.Name, place.name, err)
			case !place.allowed && (err == nil || !strings.Contains(err.Error(), place.refusal)):
				t.Errorf("%s, %s: err = %v, want %q", row.Name, place.name, err, place.refusal)
			}
		}
	}
}

// TestRuntimeRowsExecute runs Listing 2 (a pointer array and a plain
// array, so both families of verbs) blocking and on streams: between the
// two compiled modules every run-time library row is called, and both
// runs finish.
func TestRuntimeRowsExecute(t *testing.T) {
	called := map[ir.IntrinsicID]bool{}
	for _, async := range []bool{false, true} {
		prog, err := core.Compile("strings.c", stringArray, core.Options{
			Strategy: core.CGCMUnoptimized, Async: async, Ablate: core.PassSet{core.PassDOALL: true}})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Module.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if _, ok := in.RuntimeCall(); ok {
					called[in.Intrinsic().ID] = true
				}
			})
		}
		if rep, err := prog.Run(); err != nil || rep.Output != "15\n9\n15\n" {
			t.Errorf("async=%v: output %q, err %v", async, rep.Output, err)
		}
	}
	for i := range ir.Intrinsics {
		if row := &ir.Intrinsics[i]; row.Verb.Op != 0 && !called[row.ID] {
			t.Errorf("%s: never called", row.Name)
		}
	}
}

// TestPassesAskTheTable holds the passes to the table's Math column. The
// program below calls iabs where constant folding may delete a call
// (result unused) and where the parallelizer must admit one (a loop
// body), and imin in the pointer chain map promotion has to clone to
// hoist the map of p. Renaming those calls to each Math row leaves every
// decision as it is; renaming them to a builtin that reads memory, has an
// effect, or belongs to a GPU thread reverses each one.
func TestPassesAskTheTable(t *testing.T) {
	const src = `
int main() {
	int n = 2;
	float *a = (float*)malloc(64 * 8);
	for (int i = 0; i < 64; i++) a[i] = (float)i;
	iabs(n);
	for (int t = 0; t < 3; t++) {
		float *p = a + imin(n, n);
		for (int i = 0; i < 32; i++) p[i] = p[i] + (float)iabs(n);
	}
	print_float(a[5]);
	free(a);
	return 0;
}`
	// build is the front end, with every call of from renamed to row.
	build := func(from ir.IntrinsicID, row *ir.Intrinsic) *ir.Module {
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
			t.Fatal(err)
		}
		m.Func("main").Instrs(func(in *ir.Instr) {
			if r := in.Intrinsic(); r != nil && r.ID == from {
				in.Name = row.Name
				arg := in.Args[0]
				in.Args = nil
				for range row.Params {
					in.Args = append(in.Args, arg)
				}
				if in.Pure() != row.Math {
					t.Errorf("%s: Pure() = %v, Math = %v", row.Name, in.Pure(), row.Math)
				}
			}
		})
		return m
	}
	// count is the number of calls of row that keep.
	count := func(m *ir.Module, row *ir.Intrinsic, keep func(*ir.Func, *ir.Instr) bool) int {
		n := 0
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if in.Intrinsic() == row && keep(f, in) {
					n++
				}
			})
		}
		return n
	}

	rows := []ir.IntrinsicID{ir.InStrlen, ir.InRandInt, ir.InPrintInt, ir.InTid}
	for i := range ir.Intrinsics {
		if ir.Intrinsics[i].Math {
			rows = append(rows, ir.IntrinsicID(i))
		}
	}
	for _, id := range rows {
		row := &ir.Intrinsics[id]

		m := build(ir.InIabs, row)
		all := func(*ir.Func, *ir.Instr) bool { return true }
		before := count(m, row, all)
		if _, err := constfold.Run(m); err != nil {
			t.Fatalf("%s: constfold: %v", row.Name, err)
		}
		if got := before-count(m, row, all) == 1; got != row.Math {
			t.Errorf("%s: unused call deleted by constfold: %v, want %v", row.Name, got, row.Math)
		}
		// The initialization loop is parallel whatever the row is.
		res, err := doall.Run(m, nil)
		if err != nil {
			t.Fatalf("%s: doall: %v", row.Name, err)
		}
		if got := res.LoopsParallelized == 2; got != row.Math {
			t.Errorf("%s: loop calling it parallelized: %v, want %v (%v)", row.Name, got, row.Math, res.Rejections)
		}

		m = build(ir.InImin, row)
		if _, err := doall.Run(m, nil); err != nil {
			t.Fatalf("%s: doall: %v", row.Name, err)
		}
		if _, err := commmgmt.Run(m, nil); err != nil {
			t.Fatalf("%s: commmgmt: %v", row.Name, err)
		}
		promo, err := mappromo.Run(m, nil)
		if err != nil {
			t.Fatalf("%s: mappromo: %v", row.Name, err)
		}
		hoisted := func(_ *ir.Func, in *ir.Instr) bool { return in.Comment == "hoisted by map promotion" }
		if got := count(m, row, hoisted) == 1; got != row.Math {
			t.Errorf("%s: cloned above the loop by map promotion: %v, want %v (%d promotions)",
				row.Name, got, row.Math, promo.Promotions)
		}
	}
}
