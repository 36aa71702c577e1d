package interp_test

import (
	"io"
	"runtime"
	"testing"
	"time"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/machine"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	runtimelib "cgcm/internal/runtime"
)

// Per-layer benchmarks of the interpreter: dispatch cost per simulated
// op, by execution context and by operation class, and what the first
// interp.New of a module costs. They use only the exported API, so the
// same file measures any commit.

// dispatchBodies are loop bodies dominated by one operation class each.
// The same text runs as the body of main (cpu_root) and as the body of a
// kernel thread (kernel); buf is an 8-slot array the context may touch.
var dispatchBodies = []struct{ name, decls, body string }{
	{"arith", "", `
	int x = 1;
	for (int j = 0; j < N; j++) { x = (x * 3 + j) ^ (x >> 2); x = x - (j & 7); }`},
	{"load_store", "", `
	for (int j = 0; j < N; j++) { buf[j & 7] = buf[(j + 1) & 7] + 1; }`},
	{"branch", "", `
	int x = 0;
	for (int j = 0; j < N; j++) { if (j & 1) { x = x + 1; } else { if (j & 2) { x = x - 1; } } }`},
	{"call", "int leaf(int a, int b) { return a + b; }\n", `
	int x = 0;
	for (int j = 0; j < N; j++) { x = leaf(x, j); }`},
	{"alloca", "", `
	int x = 0;
	for (int j = 0; j < N; j++) { int t[2]; t[0] = j; t[1] = x; x = t[0] + t[1]; }`},
	// x's address is taken, so it stays in memory: the path every scalar
	// local took before promotion.
	{"escaped", "", `
	int x = 0;
	int *p = &x;
	for (int j = 0; j < N; j++) { x = x + j; *p = *p ^ (j & 3); }`},
	// buf as two rows of four: each access is one row-major instruction,
	// where load_store's are an address add and a scaled one.
	{"row_major", "", `
	for (int j = 0; j < N; j++) { buf[(j & 1) * 4 + (j & 3)] = buf[(j & 3) + (j & 1) * 4] + j; }`},
	// The continue gives the loop's increment block a second way in, so
	// the body's br to it stays a dispatch.
	{"continue_loop", "", `
	int x = 0;
	for (int j = 0; j < N; j++) { if (j & 1) continue; x = x + j; }`},
	// Multiply-accumulates: each multiply is computed by the add or
	// subtract it feeds, where a parent commit dispatches it on its own.
	{"int_mac", "", `
	int x = 1;
	for (int j = 0; j < N; j++) { x = x * 3 + j; x = (x & 255) + j * 5; }`},
	{"float_mac", "", `
	float x = 1.0;
	for (int j = 0; j < N; j++) { x = x * 0.5 + 1.0; x = x - 0.25 * x; }`},
}

func dispatchSource(decls, body string, kernel bool) string {
	if !kernel {
		return decls + "int main() {\n\tint buf[8];\n\tint N = 20000;" + body + "\n\treturn 0;\n}\n"
	}
	// 64 threads of 400 iterations each; buf is per-thread scratch. The
	// front end forbids calls inside __global__ functions, so k starts as
	// an ordinary function and launchInsteadOfCall turns it into a kernel.
	return decls + "void k(int N) {\n\tint buf[8];" + body + "\n}\n" +
		"int main() {\n\tk(400);\n\treturn 0;\n}\n"
}

// launchInsteadOfCall marks k a kernel and rewrites main's call of it
// into a 1x64 launch.
func launchInsteadOfCall(tb testing.TB, mod *ir.Module) {
	tb.Helper()
	k := mod.Func("k")
	k.Kernel = true
	rewritten := false
	mod.Func("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee == k {
			in.Op = ir.OpLaunch
			in.Args = append([]ir.Value{ir.IntConst(1), ir.IntConst(64)}, in.Args...)
			rewritten = true
		}
	})
	if !rewritten {
		tb.Fatal("main does not call k")
	}
	mod.Renumber()
	if err := mod.Verify(); err != nil {
		tb.Fatalf("verify: %v", err)
	}
}

func buildIR(tb testing.TB, src string) *ir.Module {
	tb.Helper()
	file, errs := parser.Parse("bench.c", src)
	for _, e := range errs {
		tb.Fatalf("parse: %v", e)
	}
	info, serrs := sema.Check(file)
	for _, e := range serrs {
		tb.Fatalf("sema: %v", e)
	}
	mod, err := irbuild.Build(info)
	if err != nil {
		tb.Fatalf("irbuild: %v", err)
	}
	return mod
}

// runModule interprets mod once on a fresh machine with one worker and
// returns the simulated ops it executed.
func runModule(tb testing.TB, mod *ir.Module) int64 {
	tb.Helper()
	m := machine.New(machine.DefaultCostModel())
	in, err := interp.New(mod, m, runtimelib.New(m), io.Discard)
	if err != nil {
		tb.Fatalf("interp.New: %v", err)
	}
	in.Workers = 1
	if _, err := in.Run(); err != nil {
		tb.Fatalf("run: %v", err)
	}
	st := m.Stats()
	return st.CPUOps + st.GPUOps
}

func BenchmarkDispatch(b *testing.B) {
	for _, ctx := range []struct {
		name   string
		kernel bool
	}{{"cpu_root", false}, {"kernel", true}} {
		for _, body := range dispatchBodies {
			b.Run(ctx.name+"/"+body.name, func(b *testing.B) {
				mod := buildIR(b, dispatchSource(body.decls, body.body, ctx.kernel))
				if ctx.kernel {
					launchInsteadOfCall(b, mod)
				}
				runModule(b, mod) // warm: any per-module preparation is not dispatch
				b.ReportAllocs()
				b.ResetTimer()
				var ops int64
				for i := 0; i < b.N; i++ {
					ops += runModule(b, mod)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/simop")
			})
		}
	}
}

// BenchmarkLower times the first interp.New on a freshly compiled module
// of every suite program — the call that pays for any once-per-module
// preparation of the interpreter — and reports it per IR instruction and
// in objects allocated per module. An iteration also compiles the suite
// (a module can be fresh only once), which ns/op therefore includes; the
// two custom metrics count interp.New alone.
func BenchmarkLower(b *testing.B) {
	progs := bench.All()
	var spent time.Duration
	var instrs, mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		for _, bp := range progs {
			p, err := core.Compile(bp.Name+".c", bp.Source, core.Options{Strategy: core.CGCMOptimized})
			if err != nil {
				b.Fatal(err)
			}
			mod := p.Module
			for _, f := range mod.Funcs {
				f.Instrs(func(*ir.Instr) { instrs++ })
			}
			m := machine.New(machine.DefaultCostModel())
			rt := runtimelib.New(m)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			t0 := time.Now()
			if _, err := interp.New(mod, m, rt, io.Discard); err != nil {
				b.Fatal(err)
			}
			spent += time.Since(t0)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
		}
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(mallocs)/float64(b.N*len(progs)), "allocs/module")
}
