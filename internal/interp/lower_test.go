package interp

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// newRun makes an interpreter for mod on a fresh machine.
func newRun(tb testing.TB, mod *ir.Module, workers int) (*Interp, *machine.Machine) {
	tb.Helper()
	m := machine.New(machine.DefaultCostModel())
	in, err := New(mod, m, runtimelib.New(m), io.Discard)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	in.Workers = workers
	return in, m
}

// loopModule is the engine table's module around a body with a known
// instruction count: t(x) counts x down in a loop, re-executing an alloca
// and calling h every time round. root calls t once; otherwise main
// launches it over grid x 64 threads.
func loopModule(root bool, grid, x int64) (mod *ir.Module, stepsPerT int64) {
	c := engineCase{x: ic(x), y: ic(0), build: func(t *tb) want {
		i := t.alloca(8)
		t.store(i, t.x, 8)
		loop, done := t.block(), t.block()
		t.br(loop)
		t.b = loop
		v := t.alloca(8)
		t.store(v, t.emit(&ir.Instr{Op: ir.OpCall, Callee: t.mod.Func("h"), Args: []ir.Value{t.load(v, 8), t.load(i, 8)}}), 8)
		left := t.op(ir.OpSub, t.load(i, 8), ic(1))
		t.store(i, left, 8)
		t.condbr(t.op(ir.OpNe, left, ic(0)), loop, done)
		t.b = done
		t.load(v, 8)
		return want{}
	}}
	ctx := ctxKernel
	if root {
		ctx = ctxRoot
	}
	mod, _ = buildEngine(c, ctx)
	if !root {
		main := mod.Func("main")
		for _, in := range main.Blocks[0].Instrs {
			if in.Op == ir.OpLaunch {
				in.Args[0], in.Args[1] = ic(grid), ic(64)
			}
		}
	}
	// alloca, store, br; per round alloca, load, load, call (+ h's add and
	// ret), store, load, sub, store, ne, condbr; then load, ret.
	return mod, 3 + x*(10+2) + 2
}

// TestStepsCountsInstructions: Steps is the number of instructions the
// run executed — not the batches its contexts drew from the step pool —
// for any worker count, and charging steps a run at a time does not
// change it.
func TestStepsCountsInstructions(t *testing.T) {
	t.Run("five instructions", func(t *testing.T) {
		mod := ir.NewModule("five")
		f := &ir.Func{Name: "main", HasResult: true}
		b, yes, no := f.NewBlock("entry"), f.NewBlock("yes"), f.NewBlock("no")
		sum := b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{ic(1), ic(2)}})
		prod := b.Append(&ir.Instr{Op: ir.OpMul, Args: []ir.Value{sum, ic(3)}})
		small := b.Append(&ir.Instr{Op: ir.OpLt, Args: []ir.Value{prod, ic(10)}})
		b.Append(&ir.Instr{Op: ir.OpCondBr, Args: []ir.Value{small}, Targets: []*ir.Block{yes, no}})
		yes.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{prod}})
		no.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{ic(0)}})
		mod.AddFunc(f)
		mod.Renumber()
		in, _ := newRun(t, mod, 1)
		ret, err := in.Run()
		if err != nil || ret != 9 {
			t.Fatalf("run = %d, %v; want 9", ret, err)
		}
		if got := in.Steps(); got != 5 {
			t.Errorf("Steps() = %d after a five-instruction program", got)
		}
	})
	t.Run("root loop", func(t *testing.T) {
		mod, perT := loopModule(true, 0, 1000)
		in, _ := newRun(t, mod, 1)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := in.Steps(), 1+perT+1; got != want { // main: call, ret
			t.Errorf("Steps() = %d, want %d", got, want)
		}
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("kernel/workers=%d", workers), func(t *testing.T) {
			const grid, x = 5, 7
			mod, perT := loopModule(false, grid, x)
			in, _ := newRun(t, mod, workers)
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := in.Steps(), 4+grid*64*perT; got != want { // main: two maps, launch, ret
				t.Errorf("Steps() = %d, want %d", got, want)
			}
		})
	}
	t.Run("step limit", func(t *testing.T) {
		// The limit is exact: a program of n steps runs under MaxSteps n
		// and not under n-1.
		mod, perT := loopModule(true, 0, 50)
		n := 1 + perT + 1
		for _, lim := range []int64{n, n - 1} {
			in, _ := newRun(t, mod, 1)
			in.Lim.MaxSteps = lim
			_, err := in.Run()
			if ok := err == nil; ok != (lim == n) {
				t.Errorf("MaxSteps %d of %d: err = %v", lim, n, err)
			}
		}
	})
}

// TestWarmRunDoesNoLowering: a module is lowered by the first interpreter
// made for it and never again — later interpreters share the first one's
// code arrays, and a whole warm New+Run allocates fewer objects than
// lowering alone must (at least two labels per function).
func TestWarmRunDoesNoLowering(t *testing.T) {
	const funcs = 64
	mod := ir.NewModule("many")
	for i := 0; i <= funcs; i++ {
		f := &ir.Func{Name: fmt.Sprintf("f%d", i), HasResult: true}
		if i == funcs {
			f.Name = "main"
		}
		b := f.NewBlock("entry")
		b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{b.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{ic(int64(i)), ic(1)}})}})
		mod.AddFunc(f)
	}
	mod.Renumber()

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	runOnce := func() *Interp {
		in, _ := newRun(t, mod, 1)
		if ret, err := in.Run(); err != nil || ret != funcs+1 {
			t.Fatalf("run = %d, %v", ret, err)
		}
		return in
	}
	before := mallocs()
	first := runOnce()
	cold := mallocs() - before
	warm := testing.AllocsPerRun(20, func() { runOnce() })
	const bound = funcs // far below the 2*funcs labels lowering allocates, far above a run of main
	if cold <= bound {
		t.Errorf("first New+Run allocated %d objects; lowering %d functions should take more than %d", cold, funcs+1, bound)
	}
	if warm > bound {
		t.Errorf("warm New+Run allocates %.0f objects, more than %d: is it lowering again?", warm, bound)
	}
	if again := runOnce(); again.code != first.code || &again.code.insts[0] != &first.code.insts[0] {
		t.Error("a later interpreter of the module does not share the first one's code")
	}
}

// TestConcurrentFirstNewLowersOnce: interpreters made at the same moment
// for a module nothing has run yet all end up on one lowered form.
func TestConcurrentFirstNewLowersOnce(t *testing.T) {
	mod, _ := loopModule(false, 2, 3)
	const n = 8
	codes := make([]*code, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			in, _ := newRun(t, mod, 2)
			if _, err := in.Run(); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
			codes[i] = in.code
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range codes {
		if c == nil || c != codes[0] {
			t.Fatalf("interpreter %d runs code %p, interpreter 0 %p", i, c, codes[0])
		}
	}
}

// TestKernelThreadsAllocateNothing: what a launch allocates depends on
// its worker count, not its thread count — threads with allocas and
// calls reuse their worker's stack, scratch arena and counters.
func TestKernelThreadsAllocateNothing(t *testing.T) {
	allocs := func(grid int64) float64 {
		mod, _ := loopModule(false, grid, 4)
		lowered(mod) // not a cost of the launch
		return testing.AllocsPerRun(5, func() {
			in, _ := newRun(t, mod, 2)
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(1), allocs(64) // 64 and 4096 threads
	if many > few+8 {
		t.Errorf("a run launching 4096 threads allocates %.0f objects, one launching 64 threads %.0f", many, few)
	}
}

// TestRootPanicIsTypedError: a Go panic inside the root context's
// dispatch loop fails the run with a typed error instead of unwinding
// through the caller (a server's worker goroutine, say).
func TestRootPanicIsTypedError(t *testing.T) {
	mod, _ := buildEngine(engineCase{build: func(t *tb) want {
		t.op(ir.OpAdd, t.x, t.y)
		return want{}
	}}, ctxRoot)
	in, _ := newRun(t, mod, 1)
	// Corrupt this interpreter's view of the code so the add writes
	// outside its frame: the stand-in for an engine bug.
	broken := *in.code
	broken.insts = append([]inst(nil), in.code.insts...)
	for i := range broken.insts {
		if broken.insts[i].op == opAdd {
			broken.insts[i].dst = 1 << 20
		}
	}
	in.code = &broken
	_, err := in.Run()
	var ie *Error
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "internal: panic in interpreter") {
		t.Fatalf("Run = %v, want a typed internal error", err)
	}
}
