package interp

import (
	"fmt"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// pureIntrinsic evaluates a builtin that only computes: x and y are its
// operand bits (y is zero for a one-operand builtin).
func pureIntrinsic(id ir.IntrinsicID, x, y uint64) uint64 {
	switch id {
	case ir.InSqrt:
		return ir.F2B(math.Sqrt(ir.B2F(x)))
	case ir.InFabs:
		return ir.F2B(math.Abs(ir.B2F(x)))
	case ir.InExp:
		return ir.F2B(math.Exp(ir.B2F(x)))
	case ir.InLog:
		return ir.F2B(math.Log(ir.B2F(x)))
	case ir.InPow:
		return ir.F2B(math.Pow(ir.B2F(x), ir.B2F(y)))
	case ir.InSin:
		return ir.F2B(math.Sin(ir.B2F(x)))
	case ir.InCos:
		return ir.F2B(math.Cos(ir.B2F(x)))
	case ir.InFloor:
		return ir.F2B(math.Floor(ir.B2F(x)))
	case ir.InCeil:
		return ir.F2B(math.Ceil(ir.B2F(x)))
	case ir.InIabs:
		if int64(x) < 0 {
			return -x
		}
		return x
	case ir.InImin:
		if int64(x) < int64(y) {
			return x
		}
		return y
	case ir.InImax:
		if int64(x) > int64(y) {
			return x
		}
		return y
	case ir.InFmin:
		return ir.F2B(math.Min(ir.B2F(x), ir.B2F(y)))
	}
	return ir.F2B(math.Max(ir.B2F(x), ir.B2F(y))) // InFmax
}

// intrinsic executes one self-charging builtin of function fc at source
// line line; a holds its argument bits. It returns the result bits and
// the op cost to charge to the executing context.
func (ex *exec) intrinsic(fc *funcCode, id ir.IntrinsicID, line int, a []uint64) (uint64, int64, error) {
	in := ex.in
	switch id {
	// --- Heap (CPU only; sema enforces) ---
	case ir.InMalloc:
		ex.flushOps()
		size := int64(a[0])
		if size < 0 {
			return 0, 8, nil // like libc: a size no allocator can satisfy yields NULL
		}
		in.RT.Line = line
		return in.RT.Malloc(size), 8, nil
	case ir.InCalloc:
		ex.flushOps()
		in.RT.Line = line
		p, err := in.RT.Calloc(int64(a[0]), int64(a[1]))
		return p, 8, wrapErr(fc, err)
	case ir.InRealloc:
		ex.flushOps()
		in.RT.Line = line
		p, err := in.RT.Realloc(a[0], int64(a[1]))
		return p, 8, wrapErr(fc, err)
	case ir.InFree:
		ex.flushOps()
		return 0, 8, wrapErr(fc, in.RT.Free(a[0]))

	// --- Strings ---
	case ir.InStrlen:
		n := int64(0)
		for {
			c, err := ex.load(fc, a[0]+uint64(n), 1, nil)
			if err != nil {
				return 0, 0, err
			}
			if c == 0 {
				break
			}
			n++
		}
		return uint64(n), n + 2, nil

	// --- Deterministic RNG ---
	case ir.InSrand:
		ex.rng = a[0] | 1
		return 0, 1, nil
	case ir.InRandInt:
		n := int64(a[0])
		if n <= 0 {
			n = 1
		}
		return uint64(int64(ex.nextRand() >> 11 % uint64(n))), 4, nil
	case ir.InRandFloat:
		return ir.F2B(float64(ex.nextRand()>>11) / float64(1<<53)), 4, nil

	// --- Output ---
	case ir.InPrintInt:
		fmt.Fprintf(ex.out, "%d\n", int64(a[0]))
		return 0, 4, nil
	case ir.InPrintFloat:
		fmt.Fprintf(ex.out, "%.6g\n", ir.B2F(a[0]))
		return 0, 4, nil
	case ir.InPrintStr:
		s, err := ex.cString(fc, a[0])
		if err != nil {
			return 0, 0, err
		}
		fmt.Fprintf(ex.out, "%s\n", s)
		return 0, 4, nil

	// --- Manual communication (CUDA driver style, Listing 1) ---
	case ir.InCudaMalloc:
		ex.flushOps()
		base := in.Mach.Alloc(machine.GPU, int64(a[0]), "cuda_malloc")
		if base == 0 {
			return 0, 0, &Error{Fn: fc.name, Msg: fmt.Sprintf(
				"cuda_malloc: device alloc failure: %d bytes do not fit in the device address space", int64(a[0]))}
		}
		in.Mach.ChargeAllocGPU()
		return base, 0, nil
	case ir.InCudaFree:
		ex.flushOps()
		if cpu, ok := in.hostTwin(a[0]); ok {
			return 0, 0, wrapErr(fc, in.Mach.Free(machine.CPU, cpu))
		}
		return 0, 0, wrapErr(fc, in.Mach.Free(machine.GPU, a[0]))
	case ir.InCudaMemcpyH2D:
		ex.flushOps()
		if cpu, ok := in.hostTwin(a[0]); ok {
			return 0, 0, wrapErr(fc, in.hostCopy(cpu, a[1], int64(a[2])))
		}
		return 0, 0, wrapErr(fc, in.Mach.CopyHtoD(a[0], a[1], int64(a[2])))
	case ir.InCudaMemcpyD2H:
		ex.flushOps()
		if cpu, ok := in.hostTwin(a[1]); ok {
			return 0, 0, wrapErr(fc, in.hostCopy(a[0], cpu, int64(a[2])))
		}
		return 0, 0, wrapErr(fc, in.Mach.CopyDtoH(a[0], a[1], int64(a[2])))
	}

	// --- CGCM runtime library ---
	name := ir.Intrinsics[id].Name
	if ex.worker && !ex.inspect && (id == ir.InMap || id == ir.InMapAsync) {
		return 0, 0, &Error{Fn: fc.name, Msg: name + " on GPU"}
	}
	ex.flushOps()
	// Stamp the call site (the call's events carry it) and book the call
	// as spanning the verbs it made, which times it on the simulated clock.
	in.RT.Line = line
	from := in.Mach.Pos()
	p, err := rtCall(in.RT, id, a[0])
	in.Mach.Note(&trace.Event{Kind: trace.EvCall, Label: name, Line: line}, from)
	return p, 0, wrapErr(fc, err)
}

// hostTwin returns the host bytes that stand for device address dev once
// the device has degraded: manual cuda_* calls then reach the same bytes
// the fallback kernels do. It fails before degradation.
func (in *Interp) hostTwin(dev uint64) (uint64, bool) {
	if !in.RT.Degraded() {
		return 0, false
	}
	return in.RT.TranslateDev(dev)
}

// hostCopy is a cuda_memcpy_* after degradation: both ends are host
// memory, and like realloc's copy it charges nothing.
func (in *Interp) hostCopy(dst, src uint64, n int64) error {
	data, err := in.Mach.ReadBytes(src, n)
	if err != nil {
		return err
	}
	return in.Mach.WriteBytes(dst, data)
}

// rtCall dispatches one cgcm.* runtime-library call; the verbs that
// return no pointer yield 0.
func rtCall(rt *runtime.Runtime, id ir.IntrinsicID, ptr uint64) (uint64, error) {
	switch id {
	case ir.InMap:
		return rt.Map(ptr)
	case ir.InMapAsync:
		return rt.MapAsync(ptr)
	case ir.InMapArray:
		return rt.MapArray(ptr)
	case ir.InUnmap:
		return 0, rt.Unmap(ptr)
	case ir.InUnmapAsync:
		return 0, rt.UnmapAsync(ptr)
	case ir.InUnmapArray:
		return 0, rt.UnmapArray(ptr)
	case ir.InRelease:
		return 0, rt.Release(ptr)
	}
	return 0, rt.ReleaseArray(ptr)
}

func wrapErr(fc *funcCode, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Fn: fc.name, Msg: err.Error(), Err: err}
}

func (ex *exec) nextRand() uint64 {
	x := ex.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ex.rng = x
	return x
}

func (ex *exec) cString(fc *funcCode, ptr uint64) (string, error) {
	var out []byte
	for {
		c, err := ex.load(fc, ptr+uint64(len(out)), 1, nil)
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, byte(c))
		if len(out) > 1<<20 {
			return "", &Error{Fn: fc.name, Msg: "unterminated string"}
		}
	}
}
