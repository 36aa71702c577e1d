package ir

import "fmt"

// Kind is a builtin's parameter or result type, as coarsely as a
// signature needs it.
type Kind uint8

// Kinds.
const (
	KVoid Kind = iota
	KInt
	KFloat
	KPtr // void*
	KStr // char*
)

// Placement says which code may call a builtin.
type Placement uint8

// Placements.
const (
	Anywhere Placement = iota
	CPUOnly
	KernelOnly
)

// AllocSpace says whether a builtin's result is a fresh allocation unit,
// and in which memory.
type AllocSpace uint8

// Allocation spaces.
const (
	NoAlloc AllocSpace = iota
	HostAlloc
	// DeviceAlloc is manually managed GPU memory (cuda_malloc): CGCM must
	// neither translate nor map a pointer into it.
	DeviceAlloc
)

// RuntimeOp is what a call into the CGCM run-time library does to a unit.
type RuntimeOp uint8

// Runtime operations; the zero value marks a row that is no runtime call.
const (
	RtMap RuntimeOp = iota + 1
	RtUnmap
	RtRelease
)

// RuntimeVerb is a cgcm.* call as the passes reason about it: the
// operation, whether it handles a doubly-indirect pointer array, and
// whether it is the stream variant.
type RuntimeVerb struct {
	Op    RuntimeOp
	Array bool
	Async bool
}

// IntrinsicID indexes Intrinsics; executors dispatch on it.
type IntrinsicID int32

// Intrinsic ids, in table order.
const (
	InMalloc IntrinsicID = iota
	InCalloc
	InRealloc
	InFree
	InStrlen
	InSqrt
	InFabs
	InExp
	InLog
	InPow
	InSin
	InCos
	InFloor
	InCeil
	InIabs
	InImin
	InImax
	InFmin
	InFmax
	InSrand
	InRandInt
	InRandFloat
	InPrintInt
	InPrintFloat
	InPrintStr
	InTid
	InNtid
	InCudaMalloc
	InCudaFree
	InCudaMemcpyH2D
	InCudaMemcpyD2H
	InMap
	InMapAsync
	InUnmap
	InUnmapAsync
	InRelease
	InMapArray
	InUnmapArray
	InReleaseArray
)

// Intrinsic is one row of the builtin table: everything the front end,
// the passes and the executor know about what an OpIntrinsic does.
type Intrinsic struct {
	ID   IntrinsicID
	Name string
	// Result and Params are the source signature. The cgcm.* rows have
	// one too (a pointer in; a pointer out of the map verbs), though no
	// source program can spell their names.
	Result Kind
	Params []Kind
	Place  Placement
	// Math marks a builtin that touches no memory and has no effect but
	// its result, which depends on its operands alone: a pass may fold,
	// delete, clone or hoist it, it is invariant over invariant inputs,
	// and a DOALL body or a glue kernel may contain it. Cost is its
	// static op cost; the others charge themselves when they execute.
	Math bool
	Cost int32
	// Alloc is set when the result is a new allocation unit.
	Alloc AllocSpace
	// Ref and Mod list the pointer arguments whose units the builtin
	// reads and writes on the host.
	Ref, Mod []int
	// Verb is set on the run-time library rows.
	Verb RuntimeVerb
}

var (
	sigI  = []Kind{KInt}
	sigII = []Kind{KInt, KInt}
	sigF  = []Kind{KFloat}
	sigFF = []Kind{KFloat, KFloat}
	sigP  = []Kind{KPtr}
	sigS  = []Kind{KStr}
	sigPI = []Kind{KPtr, KInt}
	// cuda_memcpy_*(dst, src, bytes)
	sigPPI = []Kind{KPtr, KPtr, KInt}
	arg0   = []int{0}
)

// Intrinsics is the builtin table, indexed by IntrinsicID. It is the only
// list of builtins in the program: sema derives its signatures from it,
// the passes ask it what a call may do, and the interpreter's executor
// switches have one case per row. Adding a builtin is one row here and
// one executor case.
var Intrinsics = [...]Intrinsic{
	// Heap management. The CGCM run-time library wraps these to maintain
	// the allocation map (§3.1).
	InMalloc:  {Name: "malloc", Result: KPtr, Params: sigI, Place: CPUOnly, Alloc: HostAlloc},
	InCalloc:  {Name: "calloc", Result: KPtr, Params: sigII, Place: CPUOnly, Alloc: HostAlloc},
	InRealloc: {Name: "realloc", Result: KPtr, Params: sigPI, Place: CPUOnly, Alloc: HostAlloc, Ref: arg0, Mod: arg0},
	InFree:    {Name: "free", Params: sigP, Place: CPUOnly, Mod: arg0},

	// Strings.
	InStrlen: {Name: "strlen", Result: KInt, Params: sigS, Ref: arg0},

	// Math; usable on both CPU and GPU.
	InSqrt:  {Name: "sqrt", Result: KFloat, Params: sigF, Math: true, Cost: 6},
	InFabs:  {Name: "fabs", Result: KFloat, Params: sigF, Math: true, Cost: 1},
	InExp:   {Name: "exp", Result: KFloat, Params: sigF, Math: true, Cost: 10},
	InLog:   {Name: "log", Result: KFloat, Params: sigF, Math: true, Cost: 10},
	InPow:   {Name: "pow", Result: KFloat, Params: sigFF, Math: true, Cost: 14},
	InSin:   {Name: "sin", Result: KFloat, Params: sigF, Math: true, Cost: 10},
	InCos:   {Name: "cos", Result: KFloat, Params: sigF, Math: true, Cost: 10},
	InFloor: {Name: "floor", Result: KFloat, Params: sigF, Math: true, Cost: 1},
	InCeil:  {Name: "ceil", Result: KFloat, Params: sigF, Math: true, Cost: 1},
	InIabs:  {Name: "iabs", Result: KInt, Params: sigI, Math: true, Cost: 1},
	InImin:  {Name: "imin", Result: KInt, Params: sigII, Math: true, Cost: 1},
	InImax:  {Name: "imax", Result: KInt, Params: sigII, Math: true, Cost: 1},
	InFmin:  {Name: "fmin", Result: KFloat, Params: sigFF, Math: true, Cost: 1},
	InFmax:  {Name: "fmax", Result: KFloat, Params: sigFF, Math: true, Cost: 1},

	// Deterministic pseudo-random numbers (xorshift with explicit seed so
	// benchmark workloads are reproducible).
	InSrand:     {Name: "srand", Params: sigI, Place: CPUOnly},
	InRandInt:   {Name: "rand_int", Result: KInt, Params: sigI, Place: CPUOnly},
	InRandFloat: {Name: "rand_float", Result: KFloat, Place: CPUOnly},

	// Output for validation.
	InPrintInt:   {Name: "print_int", Params: sigI, Place: CPUOnly},
	InPrintFloat: {Name: "print_float", Params: sigF, Place: CPUOnly},
	InPrintStr:   {Name: "print_str", Params: sigS, Place: CPUOnly, Ref: arg0},

	// GPU thread identity: tid() is the global thread index of the calling
	// GPU thread; ntid() is the total thread count of the launch. They
	// read no memory, but their value belongs to the executing thread, so
	// they are not Math: hoisted to the CPU or cloned into another launch
	// they would mean something else.
	InTid:  {Name: "tid", Result: KInt, Place: KernelOnly},
	InNtid: {Name: "ntid", Result: KInt, Place: KernelOnly},

	// Manual communication management, CUDA driver style (the paper's
	// Listing 1). Programs that use these bypass CGCM entirely for the
	// units involved: cuda_malloc returns a device pointer the program
	// must copy into and out of explicitly. They exist so the "manual
	// parallelization, manual communication" quadrant of Figure 1 can be
	// written and compared against automatic management.
	InCudaMalloc:    {Name: "cuda_malloc", Result: KPtr, Params: sigI, Place: CPUOnly, Alloc: DeviceAlloc},
	InCudaFree:      {Name: "cuda_free", Params: sigP, Place: CPUOnly},
	InCudaMemcpyH2D: {Name: "cuda_memcpy_h2d", Params: sigPPI, Place: CPUOnly},
	InCudaMemcpyD2H: {Name: "cuda_memcpy_d2h", Params: sigPPI, Place: CPUOnly},

	// The CGCM run-time library (§3), called only by pass-inserted code.
	// Deliberately no Ref, Mod or Alloc: map promotion reasons about these
	// calls' effects itself (DESIGN.md, "Intrinsics: one table").
	InMap:          {Name: runtimePrefix + "map", Result: KPtr, Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtMap}},
	InMapAsync:     {Name: runtimePrefix + "mapAsync", Result: KPtr, Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtMap, Async: true}},
	InUnmap:        {Name: runtimePrefix + "unmap", Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtUnmap}},
	InUnmapAsync:   {Name: runtimePrefix + "unmapAsync", Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtUnmap, Async: true}},
	InRelease:      {Name: runtimePrefix + "release", Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtRelease}},
	InMapArray:     {Name: runtimePrefix + "mapArray", Result: KPtr, Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtMap, Array: true}},
	InUnmapArray:   {Name: runtimePrefix + "unmapArray", Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtUnmap, Array: true}},
	InReleaseArray: {Name: runtimePrefix + "releaseArray", Params: sigP, Place: CPUOnly, Verb: RuntimeVerb{Op: RtRelease, Array: true}},
}

// runtimePrefix starts the name of every run-time library row, and of
// nothing a source program can call.
const runtimePrefix = "cgcm."

// intrinsicByName resolves an OpIntrinsic's Name to its row.
var intrinsicByName = func() map[string]*Intrinsic {
	m := make(map[string]*Intrinsic, len(Intrinsics))
	for i := range Intrinsics {
		row := &Intrinsics[i]
		row.ID = IntrinsicID(i)
		m[row.Name] = row
	}
	return m
}()

// Intrinsic returns the table row of the builtin in calls, or nil when in
// is no OpIntrinsic or names nothing in the table.
func (in *Instr) Intrinsic() *Intrinsic {
	if in.Op != OpIntrinsic {
		return nil
	}
	return intrinsicByName[in.Name]
}

// Pure reports whether in only computes: an arithmetic, compare or
// convert instruction, or a call of a Math builtin. Such an instruction
// reads no memory and has no effect but its result, so it may be deleted
// when unused, cloned, hoisted, and run on either processor.
func (in *Instr) Pure() bool {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe,
		OpIToF, OpFToI:
		return true
	}
	row := in.Intrinsic()
	return row != nil && row.Math
}

// RuntimeCall returns the verb of a call into the CGCM run-time library;
// ok is false for every other instruction.
func (in *Instr) RuntimeCall() (v RuntimeVerb, ok bool) {
	row := in.Intrinsic()
	if row == nil || row.Verb.Op == 0 {
		return RuntimeVerb{}, false
	}
	return row.Verb, true
}

// IsRuntimeCall reports whether the instruction is a call to the named
// CGCM runtime intrinsic ("map", "unmapArray", ...); name "" matches any
// of them.
func (in *Instr) IsRuntimeCall(name string) bool {
	row := in.Intrinsic()
	return row != nil && row.Verb.Op != 0 && (name == "" || row.Name[len(runtimePrefix):] == name)
}

// Name returns the intrinsic name that calls the verb, for the passes
// that emit runtime calls.
func (v RuntimeVerb) Name() string {
	for i := InMap; i <= InReleaseArray; i++ {
		if Intrinsics[i].Verb == v {
			return Intrinsics[i].Name
		}
	}
	panic(&InternalError{Msg: fmt.Sprintf("ir: the run-time library has no verb %+v", v)})
}
