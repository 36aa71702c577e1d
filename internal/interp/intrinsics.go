package interp

import (
	"fmt"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/runtime"
)

// intrinsic dispatches an OpIntrinsic instruction. It returns the result
// bits and the op cost to charge to the executing context.
func (ex *exec) intrinsic(fr *frame, instr *ir.Instr, ops []operand) (uint64, int64, error) {
	in := ex.in
	a := func(i int) uint64 { return ex.evalOp(fr, &ops[i]) }
	af := func(i int) float64 { return ir.B2F(ex.evalOp(fr, &ops[i])) }
	ff := func(v float64) uint64 { return ir.F2B(v) }
	onGPU := fr.gpu != nil && !fr.gpu.inspect

	switch instr.Name {
	// --- Heap (CPU only; sema enforces) ---
	case "malloc":
		ex.flushOps()
		size := int64(a(0))
		if size < 0 {
			return 0, 8, nil // like libc: a size no allocator can satisfy yields NULL
		}
		in.RT.SiteLine = int(instr.Line)
		return in.RT.Malloc(size), 8, nil
	case "calloc":
		ex.flushOps()
		in.RT.SiteLine = int(instr.Line)
		p, err := in.RT.Calloc(int64(a(0)), int64(a(1)))
		return p, 8, ex.wrapErr(fr, err)
	case "realloc":
		ex.flushOps()
		in.RT.SiteLine = int(instr.Line)
		p, err := in.RT.Realloc(a(0), int64(a(1)))
		return p, 8, ex.wrapErr(fr, err)
	case "free":
		ex.flushOps()
		return 0, 8, ex.wrapErr(fr, in.RT.Free(a(0)))

	// --- Strings ---
	case "strlen":
		ptr := a(0)
		n := int64(0)
		for {
			c, err := ex.memLoad(fr, ptr+uint64(n), 1)
			if err != nil {
				return 0, 0, err
			}
			if c == 0 {
				break
			}
			n++
		}
		return uint64(n), n + 2, nil

	// --- Math ---
	case "sqrt":
		return ff(math.Sqrt(af(0))), 6, nil
	case "fabs":
		return ff(math.Abs(af(0))), 1, nil
	case "exp":
		return ff(math.Exp(af(0))), 10, nil
	case "log":
		return ff(math.Log(af(0))), 10, nil
	case "pow":
		return ff(math.Pow(af(0), af(1))), 14, nil
	case "sin":
		return ff(math.Sin(af(0))), 10, nil
	case "cos":
		return ff(math.Cos(af(0))), 10, nil
	case "floor":
		return ff(math.Floor(af(0))), 1, nil
	case "ceil":
		return ff(math.Ceil(af(0))), 1, nil
	case "iabs":
		v := int64(a(0))
		if v < 0 {
			v = -v
		}
		return uint64(v), 1, nil
	case "imin":
		x, y := int64(a(0)), int64(a(1))
		if x < y {
			return uint64(x), 1, nil
		}
		return uint64(y), 1, nil
	case "imax":
		x, y := int64(a(0)), int64(a(1))
		if x > y {
			return uint64(x), 1, nil
		}
		return uint64(y), 1, nil
	case "fmin":
		return ff(math.Min(af(0), af(1))), 1, nil
	case "fmax":
		return ff(math.Max(af(0), af(1))), 1, nil

	// --- Deterministic RNG ---
	case "srand":
		ex.rng = a(0) | 1
		return 0, 1, nil
	case "rand_int":
		n := int64(a(0))
		if n <= 0 {
			n = 1
		}
		return uint64(int64(ex.nextRand() >> 11 % uint64(n))), 4, nil
	case "rand_float":
		return ff(float64(ex.nextRand()>>11) / float64(1<<53)), 4, nil

	// --- Output ---
	case "print_int":
		fmt.Fprintf(ex.out, "%d\n", int64(a(0)))
		return 0, 4, nil
	case "print_float":
		fmt.Fprintf(ex.out, "%.6g\n", af(0))
		return 0, 4, nil
	case "print_str":
		s, err := ex.cString(fr, a(0))
		if err != nil {
			return 0, 0, err
		}
		fmt.Fprintf(ex.out, "%s\n", s)
		return 0, 4, nil

	// --- GPU thread identity ---
	case "tid":
		if fr.gpu == nil {
			return 0, 0, &Error{Fn: fr.fn.Name, Msg: "tid() outside kernel"}
		}
		return uint64(fr.gpu.tid), 1, nil
	case "ntid":
		if fr.gpu == nil {
			return 0, 0, &Error{Fn: fr.fn.Name, Msg: "ntid() outside kernel"}
		}
		return uint64(fr.gpu.ntid), 1, nil

	// --- Manual communication (CUDA driver style, Listing 1) ---
	case "cuda_malloc":
		ex.flushOps()
		base := in.Mach.Alloc(machine.GPU, int64(a(0)), "cuda_malloc")
		in.Mach.ChargeAllocGPU()
		return base, 0, nil
	case "cuda_free":
		ex.flushOps()
		return 0, 0, ex.wrapErr(fr, in.Mach.Free(machine.GPU, a(0)))
	case "cuda_memcpy_h2d":
		ex.flushOps()
		return 0, 0, ex.wrapErr(fr, in.Mach.CopyHtoD(a(0), a(1), int64(a(2))))
	case "cuda_memcpy_d2h":
		ex.flushOps()
		return 0, 0, ex.wrapErr(fr, in.Mach.CopyDtoH(a(0), a(1), int64(a(2))))

	// --- CGCM runtime library ---
	case "cgcm.map", "cgcm.mapAsync", "cgcm.unmap", "cgcm.unmapAsync", "cgcm.release",
		"cgcm.mapArray", "cgcm.unmapArray", "cgcm.releaseArray":
		if onGPU && (instr.Name == "cgcm.map" || instr.Name == "cgcm.mapAsync") {
			return 0, 0, &Error{Fn: fr.fn.Name, Msg: instr.Name + " on GPU"}
		}
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		p, err := rtCall(in.RT, instr.Name, a(0))
		ex.profRTExit(instr, t0)
		return p, 0, ex.wrapErr(fr, err)
	}
	return 0, 0, &Error{Fn: fr.fn.Name, Msg: "unknown intrinsic " + instr.Name}
}

// rtCall dispatches one cgcm.* runtime-library call; the verbs that
// return no pointer yield 0.
func rtCall(rt *runtime.Runtime, name string, ptr uint64) (uint64, error) {
	switch name {
	case "cgcm.map":
		return rt.Map(ptr)
	case "cgcm.mapAsync":
		return rt.MapAsync(ptr)
	case "cgcm.mapArray":
		return rt.MapArray(ptr)
	case "cgcm.unmap":
		return 0, rt.Unmap(ptr)
	case "cgcm.unmapAsync":
		return 0, rt.UnmapAsync(ptr)
	case "cgcm.unmapArray":
		return 0, rt.UnmapArray(ptr)
	case "cgcm.release":
		return 0, rt.Release(ptr)
	}
	return 0, rt.ReleaseArray(ptr)
}

// profRTEnter prepares attribution for one cgcm.* runtime-library call:
// it stamps the runtime's current source line (so transfer bytes land on
// the call site) and samples the simulated clock. No-op when profiling
// is off.
func (ex *exec) profRTEnter(instr *ir.Instr) float64 {
	in := ex.in
	if in.Prof == nil {
		return 0
	}
	in.RT.ProfLine = int(instr.Line)
	return in.Mach.Now()
}

// profRTExit charges the simulated time the runtime call consumed to the
// call's name and source line.
func (ex *exec) profRTExit(instr *ir.Instr, t0 float64) {
	in := ex.in
	if in.Prof == nil {
		return
	}
	in.Prof.AddRuntime(instr.Name, int(instr.Line), in.Mach.Now()-t0)
}

func (ex *exec) wrapErr(fr *frame, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Fn: fr.fn.Name, Msg: err.Error()}
}

func (ex *exec) nextRand() uint64 {
	x := ex.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ex.rng = x
	return x
}

func (ex *exec) cString(fr *frame, ptr uint64) (string, error) {
	var out []byte
	for {
		c, err := ex.memLoad(fr, ptr+uint64(len(out)), 1)
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, byte(c))
		if len(out) > 1<<20 {
			return "", &Error{Fn: fr.fn.Name, Msg: "unterminated string"}
		}
	}
}
