package interp

import (
	"fmt"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/runtime"
)

// intrinsicID names a builtin; lowering resolves the IR's name strings to
// these once, and execution dispatches on the integer.
type intrinsicID int32

const (
	inMalloc intrinsicID = iota
	inCalloc
	inRealloc
	inFree
	inStrlen
	inSqrt
	inFabs
	inExp
	inLog
	inPow
	inSin
	inCos
	inFloor
	inCeil
	inIabs
	inImin
	inImax
	inFmin
	inFmax
	inSrand
	inRandInt
	inRandFloat
	inPrintInt
	inPrintFloat
	inPrintStr
	inTid
	inNtid
	inCudaMalloc
	inCudaFree
	inCudaMemcpyH2D
	inCudaMemcpyD2H
	inMap
	inMapAsync
	inUnmap
	inUnmapAsync
	inRelease
	inMapArray
	inUnmapArray
	inReleaseArray
)

// intrinsics is the builtin table, indexed by intrinsicID: the name the
// IR uses, how many arguments the builtin reads, and — for the pure ones,
// which have no effect but their result and so execute inside a charge
// run — the static op cost.
var intrinsics = [...]struct {
	name string
	args int
	pure bool
	cost int32
}{
	inMalloc:        {name: "malloc", args: 1},
	inCalloc:        {name: "calloc", args: 2},
	inRealloc:       {name: "realloc", args: 2},
	inFree:          {name: "free", args: 1},
	inStrlen:        {name: "strlen", args: 1},
	inSqrt:          {name: "sqrt", args: 1, pure: true, cost: 6},
	inFabs:          {name: "fabs", args: 1, pure: true, cost: 1},
	inExp:           {name: "exp", args: 1, pure: true, cost: 10},
	inLog:           {name: "log", args: 1, pure: true, cost: 10},
	inPow:           {name: "pow", args: 2, pure: true, cost: 14},
	inSin:           {name: "sin", args: 1, pure: true, cost: 10},
	inCos:           {name: "cos", args: 1, pure: true, cost: 10},
	inFloor:         {name: "floor", args: 1, pure: true, cost: 1},
	inCeil:          {name: "ceil", args: 1, pure: true, cost: 1},
	inIabs:          {name: "iabs", args: 1, pure: true, cost: 1},
	inImin:          {name: "imin", args: 2, pure: true, cost: 1},
	inImax:          {name: "imax", args: 2, pure: true, cost: 1},
	inFmin:          {name: "fmin", args: 2, pure: true, cost: 1},
	inFmax:          {name: "fmax", args: 2, pure: true, cost: 1},
	inSrand:         {name: "srand", args: 1},
	inRandInt:       {name: "rand_int", args: 1},
	inRandFloat:     {name: "rand_float"},
	inPrintInt:      {name: "print_int", args: 1},
	inPrintFloat:    {name: "print_float", args: 1},
	inPrintStr:      {name: "print_str", args: 1},
	inTid:           {name: "tid"},
	inNtid:          {name: "ntid"},
	inCudaMalloc:    {name: "cuda_malloc", args: 1},
	inCudaFree:      {name: "cuda_free", args: 1},
	inCudaMemcpyH2D: {name: "cuda_memcpy_h2d", args: 3},
	inCudaMemcpyD2H: {name: "cuda_memcpy_d2h", args: 3},
	inMap:           {name: "cgcm.map", args: 1},
	inMapAsync:      {name: "cgcm.mapAsync", args: 1},
	inUnmap:         {name: "cgcm.unmap", args: 1},
	inUnmapAsync:    {name: "cgcm.unmapAsync", args: 1},
	inRelease:       {name: "cgcm.release", args: 1},
	inMapArray:      {name: "cgcm.mapArray", args: 1},
	inUnmapArray:    {name: "cgcm.unmapArray", args: 1},
	inReleaseArray:  {name: "cgcm.releaseArray", args: 1},
}

// intrinsicIDs resolves names at lowering time.
var intrinsicIDs = func() map[string]intrinsicID {
	m := make(map[string]intrinsicID, len(intrinsics))
	for id, in := range intrinsics {
		m[in.name] = intrinsicID(id)
	}
	return m
}()

// pureIntrinsic evaluates a builtin that only computes: x and y are its
// operand bits (y is zero for a one-operand builtin).
func pureIntrinsic(id intrinsicID, x, y uint64) uint64 {
	switch id {
	case inSqrt:
		return ir.F2B(math.Sqrt(ir.B2F(x)))
	case inFabs:
		return ir.F2B(math.Abs(ir.B2F(x)))
	case inExp:
		return ir.F2B(math.Exp(ir.B2F(x)))
	case inLog:
		return ir.F2B(math.Log(ir.B2F(x)))
	case inPow:
		return ir.F2B(math.Pow(ir.B2F(x), ir.B2F(y)))
	case inSin:
		return ir.F2B(math.Sin(ir.B2F(x)))
	case inCos:
		return ir.F2B(math.Cos(ir.B2F(x)))
	case inFloor:
		return ir.F2B(math.Floor(ir.B2F(x)))
	case inCeil:
		return ir.F2B(math.Ceil(ir.B2F(x)))
	case inIabs:
		if int64(x) < 0 {
			return -x
		}
		return x
	case inImin:
		if int64(x) < int64(y) {
			return x
		}
		return y
	case inImax:
		if int64(x) > int64(y) {
			return x
		}
		return y
	case inFmin:
		return ir.F2B(math.Min(ir.B2F(x), ir.B2F(y)))
	}
	return ir.F2B(math.Max(ir.B2F(x), ir.B2F(y))) // inFmax
}

// intrinsic executes one self-charging builtin of function fc at source
// line line; a holds its argument bits. It returns the result bits and
// the op cost to charge to the executing context.
func (ex *exec) intrinsic(fc *funcCode, id intrinsicID, line int, a []uint64) (uint64, int64, error) {
	in := ex.in
	switch id {
	// --- Heap (CPU only; sema enforces) ---
	case inMalloc:
		ex.flushOps()
		size := int64(a[0])
		if size < 0 {
			return 0, 8, nil // like libc: a size no allocator can satisfy yields NULL
		}
		in.RT.Line = line
		return in.RT.Malloc(size), 8, nil
	case inCalloc:
		ex.flushOps()
		in.RT.Line = line
		p, err := in.RT.Calloc(int64(a[0]), int64(a[1]))
		return p, 8, wrapErr(fc, err)
	case inRealloc:
		ex.flushOps()
		in.RT.Line = line
		p, err := in.RT.Realloc(a[0], int64(a[1]))
		return p, 8, wrapErr(fc, err)
	case inFree:
		ex.flushOps()
		return 0, 8, wrapErr(fc, in.RT.Free(a[0]))

	// --- Strings ---
	case inStrlen:
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
	case inSrand:
		ex.rng = a[0] | 1
		return 0, 1, nil
	case inRandInt:
		n := int64(a[0])
		if n <= 0 {
			n = 1
		}
		return uint64(int64(ex.nextRand() >> 11 % uint64(n))), 4, nil
	case inRandFloat:
		return ir.F2B(float64(ex.nextRand()>>11) / float64(1<<53)), 4, nil

	// --- Output ---
	case inPrintInt:
		fmt.Fprintf(ex.out, "%d\n", int64(a[0]))
		return 0, 4, nil
	case inPrintFloat:
		fmt.Fprintf(ex.out, "%.6g\n", ir.B2F(a[0]))
		return 0, 4, nil
	case inPrintStr:
		s, err := ex.cString(fc, a[0])
		if err != nil {
			return 0, 0, err
		}
		fmt.Fprintf(ex.out, "%s\n", s)
		return 0, 4, nil

	// --- Manual communication (CUDA driver style, Listing 1) ---
	case inCudaMalloc:
		ex.flushOps()
		base := in.Mach.Alloc(machine.GPU, int64(a[0]), "cuda_malloc")
		if base == 0 {
			return 0, 0, &Error{Fn: fc.name, Msg: fmt.Sprintf(
				"cuda_malloc: device alloc failure: %d bytes do not fit in the device address space", int64(a[0]))}
		}
		in.Mach.ChargeAllocGPU()
		return base, 0, nil
	case inCudaFree:
		ex.flushOps()
		return 0, 0, wrapErr(fc, in.Mach.Free(machine.GPU, a[0]))
	case inCudaMemcpyH2D:
		ex.flushOps()
		return 0, 0, wrapErr(fc, in.Mach.CopyHtoD(a[0], a[1], int64(a[2])))
	case inCudaMemcpyD2H:
		ex.flushOps()
		return 0, 0, wrapErr(fc, in.Mach.CopyDtoH(a[0], a[1], int64(a[2])))
	}

	// --- CGCM runtime library ---
	name := intrinsics[id].name
	if ex.worker && !ex.inspect && (id == inMap || id == inMapAsync) {
		return 0, 0, &Error{Fn: fc.name, Msg: name + " on GPU"}
	}
	ex.flushOps()
	// Stamp the call site (the profile charges the call's transfers to it)
	// and time the call on the simulated clock.
	in.RT.Line = line
	t0 := in.Mach.Now()
	p, err := rtCall(in.RT, id, a[0])
	in.Mach.Profile().AddRuntime(name, line, in.Mach.Now()-t0)
	return p, 0, wrapErr(fc, err)
}

// rtCall dispatches one cgcm.* runtime-library call; the verbs that
// return no pointer yield 0.
func rtCall(rt *runtime.Runtime, id intrinsicID, ptr uint64) (uint64, error) {
	switch id {
	case inMap:
		return rt.Map(ptr)
	case inMapAsync:
		return rt.MapAsync(ptr)
	case inMapArray:
		return rt.MapArray(ptr)
	case inUnmap:
		return 0, rt.Unmap(ptr)
	case inUnmapAsync:
		return 0, rt.UnmapAsync(ptr)
	case inUnmapArray:
		return 0, rt.UnmapArray(ptr)
	case inRelease:
		return 0, rt.Release(ptr)
	}
	return 0, rt.ReleaseArray(ptr)
}

func wrapErr(fc *funcCode, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Fn: fc.name, Msg: err.Error()}
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
