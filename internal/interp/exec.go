package interp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
)

// Scratch address-space layout. Kernel allocas are thread-local by
// construction (CGCM forbids kernels from storing pointers), so each
// worker context allocates them from a private slice of the address
// space instead of the shared segment tree. That keeps the tree
// read-only for the whole launch — the property that lets workers walk
// it without locks — and makes frame pops free.
//
// Managed launches place scratch above every real GPU allocation;
// inspector launches (which run threads against CPU memory) place it
// just below GPUBase, far above any real CPU allocation.
const scratchStride uint64 = 1 << 32 // private arena bytes per worker

// stepBatch is how many steps a context draws from the shared pool at a
// time; the MaxSteps limit is exact in total, only its attribution to a
// particular thread is batched.
const stepBatch = 8192

// inspectState collects one context's share of an inspector-mode launch.
type inspectState struct {
	touched map[uint64]bool
	wrote   map[uint64]bool
	acc     int64
}

// segCache is a monomorphic inline cache: most load/store sites touch
// one allocation unit for the life of the program, so remembering its
// bytes skips the tree walk. A machine generation mismatch (some segment
// was freed) forces re-validation. The zero value misses.
type segCache struct {
	data []byte
	base uint64
	lim8 uint64 // offsets below this can hold an 8-byte access
	gen  uint64
}

// lineOps is ops charged to one source line: how the per-pc counters are
// booked, and attribution they cannot hold — the executed head of a run
// that faulted part-way.
type lineOps struct {
	line int32
	ops  int64
}

// exec is one execution context. The interpreter's root context runs CPU
// code; each kernel launch borrows additional worker contexts (one per
// host core) that execute disjoint chunks of the thread space
// concurrently. Everything execution mutates lives here, so contexts
// share only read-only state: the lowered code, the interpreter's frame
// images, and the machine's segment tree.
type exec struct {
	in *Interp

	// budget is the context's remaining share of the step pool.
	budget int64

	// ops counts charged op cost: for the root context the CPU ops not
	// yet flushed to the machine, for a worker the current thread's.
	ops int64

	depth int
	rng   uint64
	out   io.Writer

	// stack holds the frames of every active call, innermost last.
	stack []uint64
	// image is the frame image of the space this context runs against.
	image []uint64

	// worker marks contexts that execute kernel chunks; they resolve
	// memory through lock-free lookups and private caches.
	worker bool
	id     int // worker index, selects the scratch arena

	// Per-launch thread context (workers only). hostMem makes threads
	// resolve memory against CPU space: set for inspector launches (the
	// oracle's transfers are assumed perfect) and for CPU-fallback
	// launches after device degradation. inspect (implies hostMem) turns
	// on touch-set recording.
	tid, ntid        int64
	hostMem, inspect bool

	// prof holds this context's per-line op counters, indexed by pc, while
	// a launch runs on a machine that keeps its event log: at an opCharge
	// how many times its run executed, elsewhere the ops the instruction
	// charged itself. They are booked as line-ops events (and zeroed) after
	// every launch barrier, so they always belong to exactly one kernel.
	// nil when no log is kept — the hot path then pays one nil check per
	// run.
	prof      []int64
	profSpill []lineOps

	// ic holds this context's inline caches, one per memory instruction.
	ic       []segCache
	segCache [4]*machine.Segment
	segIdx   uint8
	cacheGen uint64

	// allocas lists the CPU-frame allocation units of the active calls
	// (root context), popped at return.
	allocas []uint64

	// Scratch stack allocator for kernel allocas (worker contexts): units
	// are carved out of arena, which backs [scratchBase, scratchNext).
	scratchBase uint64
	scratchNext uint64
	scratchSegs []machine.Segment
	arena       []byte

	// insp is non-nil while running an inspector-mode chunk.
	insp *inspectState
	// race is non-nil when the write-set race detector is recording.
	race *raceLog

	// outSlot receives lazily-created per-chunk output buffers, merged
	// in thread order after the launch barrier.
	outSlot **bytes.Buffer

	// totalOps/maxOps accumulate per-thread op counts for the launch.
	totalOps, maxOps int64

	args []uint64 // scratch for intrinsic arguments and launch operands
}

// beginLaunch prepares a worker context for one kernel launch. hostMem
// places scratch in CPU space (inspector and CPU-fallback launches);
// inspect additionally turns on touch-set recording.
func (ex *exec) beginLaunch(hostMem, inspect bool, threads int64) {
	in := ex.in
	if ex.ic == nil {
		ex.ic = make([]segCache, in.code.numIC)
	} else if ex.hostMem != hostMem {
		// The caches hold segments of one space only, which is what lets
		// a hit skip the space check.
		clear(ex.ic)
	}
	ex.hostMem, ex.inspect, ex.ntid = hostMem, inspect, threads
	if hostMem {
		ex.scratchBase = machine.GPUBase - uint64(ex.id+1)*scratchStride
		ex.image = in.image[machine.CPU]
	} else {
		ex.scratchBase = machine.GPUScratchBase + uint64(ex.id)*scratchStride
		ex.image = in.image[machine.GPU]
	}
	ex.totalOps, ex.maxOps = 0, 0
	for i := range ex.segCache {
		ex.segCache[i] = nil
	}
	if inspect {
		if ex.insp == nil {
			ex.insp = &inspectState{touched: make(map[uint64]bool), wrote: make(map[uint64]bool)}
		} else {
			clear(ex.insp.touched)
			clear(ex.insp.wrote)
			ex.insp.acc = 0
		}
	} else {
		ex.insp = nil
	}
	if in.RaceCheck && !inspect {
		if ex.race == nil {
			ex.race = &raceLog{}
		}
		ex.race.ivs = ex.race.ivs[:0]
	} else {
		ex.race = nil
	}
	if ex.prof == nil && in.Mach.KeepsLog() {
		ex.prof = make([]int64, len(in.code.insts))
	}
}

// endLaunch returns the context's unused step budget to the shared pool
// and drops references that should not outlive the launch.
func (ex *exec) endLaunch() {
	ex.in.returnSteps(ex.budget)
	ex.budget = 0
	ex.out = nil
	ex.outSlot = nil
}

// takeSteps draws up to want steps from the shared pool, returning how
// many were granted (0 when the MaxSteps limit is exhausted).
func (in *Interp) takeSteps(want int64) int64 {
	for {
		cur := in.stepsTaken.Load()
		if cur >= in.stepLimit {
			return 0
		}
		take := want
		if cur+take > in.stepLimit {
			take = in.stepLimit - cur
		}
		if in.stepsTaken.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

func (in *Interp) returnSteps(n int64) {
	if n > 0 {
		in.stepsTaken.Add(-n)
	}
}

// step pays for one self-charging instruction.
func (ex *exec) step(fc *funcCode) error {
	if ex.budget--; ex.budget >= 0 {
		return nil
	}
	return ex.refill(fc)
}

// refill tops the context's overdrawn budget up from the shared pool,
// failing when the global step limit is exhausted or the run's context
// was canceled. Doubling as the cancellation checkpoint keeps the
// instruction hot path free of any per-step poll: every context — root
// and kernel workers alike — observes cancellation within stepBatch
// instructions.
func (ex *exec) refill(fc *funcCode) error {
	in := ex.in
	for ex.budget < 0 {
		take := int64(0)
		if in.done == nil || !in.interrupted() {
			take = in.takeSteps(stepBatch)
		}
		if take == 0 {
			if cerr := in.checkCancel(fc.name); cerr != nil {
				return cerr
			}
			return &Error{Fn: fc.name, Msg: "step limit exceeded (infinite loop?)"}
		}
		ex.budget += take
	}
	return nil
}

// inScratch reports whether addr falls in this worker's scratch arena.
func (ex *exec) inScratch(addr uint64) bool {
	return ex.worker && addr-ex.scratchBase < scratchStride
}

// alloca creates the stack unit of an alloca executing for the first
// time in its frame: on the CPU a machine segment registered with the
// runtime, or only an address range for a promoted local, whose value
// lives in a frame slot; in a kernel a slice of the private arena.
func (ex *exec) alloca(fc *funcCode, size int64, promoted bool, line int) (uint64, error) {
	in := ex.in
	if !ex.worker {
		var base uint64
		if promoted {
			base = in.Mach.Reserve(size)
		} else {
			base = in.Mach.Alloc(machine.CPU, size, fc.alloca)
		}
		if base == 0 {
			return 0, &Error{Fn: fc.name, Msg: fmt.Sprintf("alloca of %d bytes does not fit in the address space", size)}
		}
		if !promoted {
			in.RT.Line = line // the unit's allocation site
			in.RT.DeclareAlloca(base, size, fc.alloca)
			ex.allocas = append(ex.allocas, base)
		}
		return base, nil
	}
	if size <= 0 {
		size = 1
	}
	base := ex.scratchNext
	next := (base + uint64(size) + 15) &^ 15
	if next-ex.scratchBase > scratchStride || next < base {
		return 0, &Error{Fn: fc.name, Msg: fmt.Sprintf("kernel scratch arena exhausted (%d bytes requested)", size)}
	}
	ex.scratchNext = next
	off := base - ex.scratchBase
	if need := off + uint64(size); need > uint64(len(ex.arena)) {
		ex.growArena(need)
	}
	data := ex.arena[off : off+uint64(size) : off+uint64(size)]
	clear(data)
	space := machine.GPU
	if ex.hostMem {
		space = machine.CPU
	}
	ex.scratchSegs = append(ex.scratchSegs, machine.Segment{Base: base, Data: data, Space: space, Name: fc.kalloc})
	return base, nil
}

// growArena enlarges the scratch arena to at least need bytes, moving the
// live units with it.
func (ex *exec) growArena(need uint64) {
	n := uint64(4096)
	for n < need {
		n *= 2
	}
	arena := make([]byte, n)
	copy(arena, ex.arena)
	for i := range ex.scratchSegs {
		s := &ex.scratchSegs[i]
		off := s.Base - ex.scratchBase
		s.Data = arena[off : off+uint64(len(s.Data)) : off+uint64(len(s.Data))]
	}
	ex.arena = arena
}

// lookupSeg resolves addr for a worker context: scratch first (private,
// so no other worker can observe it), then the worker's small segment
// cache, then a lock-free walk of the shared tree.
func (ex *exec) lookupSeg(addr uint64) *machine.Segment {
	if addr-ex.scratchBase < scratchStride {
		for i := len(ex.scratchSegs) - 1; i >= 0; i-- {
			if s := &ex.scratchSegs[i]; addr >= s.Base && addr < s.End() {
				return s
			}
		}
		return nil
	}
	// The tree is read-only during a multi-worker launch, but a 1-thread
	// glue kernel may free memory mid-launch; a generation bump drops the
	// cache, exactly like the per-instruction inline caches.
	if g := ex.in.Mach.Gen(); g != ex.cacheGen {
		ex.cacheGen = g
		for i := range ex.segCache {
			ex.segCache[i] = nil
		}
	}
	for _, c := range &ex.segCache {
		if c != nil && addr >= c.Base && addr < c.End() {
			return c
		}
	}
	seg := ex.in.Mach.LookupSegment(addr)
	if seg != nil {
		ex.segCache[ex.segIdx] = seg
		ex.segIdx = (ex.segIdx + 1) & 3
	}
	return seg
}

// segForAccess resolves the segment for a size-byte access at addr,
// reproducing the machine's fault messages. Root contexts go through
// the machine (warming its access cache); workers use the lock-free
// path.
func (ex *exec) segForAccess(addr uint64, size int64) (*machine.Segment, error) {
	var seg *machine.Segment
	if ex.worker {
		seg = ex.lookupSeg(addr)
	} else {
		// Lazy flush synchronization: an async DtoH issue bumps the
		// machine generation, so every inline cache misses into here; if
		// the host is touching a unit whose flush is still in flight, it
		// pays the DMA wait now. Pure host work between flushes never
		// reaches this call and overlaps the copies.
		ex.in.Mach.WaitHostUnit(addr)
		seg = ex.in.Mach.FindSegment(addr)
	}
	if seg == nil {
		return nil, &machine.Fault{Addr: addr, Size: size, Msg: "unmapped address"}
	}
	if addr+uint64(size) > seg.End() {
		return nil, &machine.Fault{Addr: addr, Size: size, Msg: fmt.Sprintf(
			"access crosses end of allocation unit %q [%#x,%#x)", seg.Name, seg.Base, seg.End())}
	}
	return seg, nil
}

// access is the checked path of every memory access: it validates the
// address space, notes the access for the inspector, resolves the
// allocation unit and, when c is non-nil, remembers it there for the
// instruction's next execution. Scratch units are never cached (their
// frames come and go without a generation bump), nor is anything in
// inspector mode, which must see every access.
func (ex *exec) access(fc *funcCode, addr uint64, size int64, write bool, c *segCache) (*machine.Segment, error) {
	if err := ex.checkSpace(fc, addr, write); err != nil {
		return nil, err
	}
	if ex.insp != nil {
		ex.recordInspect(addr, write)
	}
	seg, err := ex.segForAccess(addr, size)
	if err != nil {
		return nil, wrapErr(fc, err)
	}
	if c != nil && ex.insp == nil && !ex.inScratch(addr) {
		*c = segCache{data: seg.Data, base: seg.Base, gen: ex.in.Mach.Gen()}
		if n := uint64(len(seg.Data)); n >= 8 {
			c.lim8 = n - 7
		}
		if write && ex.race != nil {
			ex.race.record(addr, size)
		}
	}
	return seg, nil
}

// load and store are the inline-cache miss paths of the memory
// instructions; with a nil cache, load is also how builtins (strlen and
// friends) read memory.
func (ex *exec) load(fc *funcCode, addr uint64, size int64, c *segCache) (uint64, error) {
	seg, err := ex.access(fc, addr, size, false, c)
	if err != nil {
		return 0, err
	}
	v, _ := seg.Load(addr, size)
	return v, nil
}

func (ex *exec) store(fc *funcCode, addr uint64, size int64, val uint64, c *segCache) error {
	seg, err := ex.access(fc, addr, size, true, c)
	if err != nil {
		return err
	}
	seg.Store(addr, size, val)
	return nil
}

// foldProf appends every accumulated count to acc as ops on its source
// line and zeroes the counters. Called on the launch goroutine after the
// worker barrier, so no context is concurrently counting.
func (ex *exec) foldProf(acc []lineOps) []lineOps {
	code := ex.in.code
	for pc, n := range ex.prof {
		if n == 0 {
			continue
		}
		ex.prof[pc] = 0
		first := code.sites[pc].orig
		if head := &code.insts[pc]; head.op == opCharge {
			for _, o := range code.origs[first : first+head.b] {
				acc = append(acc, lineOps{line: o.line, ops: n * int64(o.cost)})
			}
		} else {
			acc = append(acc, lineOps{line: code.origs[first].line, ops: n})
		}
	}
	acc = append(acc, ex.profSpill...)
	ex.profSpill = ex.profSpill[:0]
	return acc
}

// faultAt fails the instruction at pc with err. The run it belongs to
// was charged whole when it began; the part from the failing instruction
// on did not execute, so its cost (and every step past the failing
// instruction's own) goes back, and the profile keeps the executed head.
func (ex *exec) faultAt(pc int32, err error) error {
	code := ex.in.code
	s := code.sites[pc]
	if s.run < 0 {
		return err
	}
	head := &code.insts[s.run]
	first := code.sites[s.run].orig
	done := code.origs[first:s.orig]
	var cost int64
	for _, o := range done {
		cost += int64(o.cost)
	}
	ex.ops -= int64(head.a) - cost
	ex.budget += int64(head.b) - int64(len(done)+1)
	if ex.prof != nil {
		ex.prof[s.run]--
		for _, o := range done {
			ex.profSpill = append(ex.profSpill, lineOps{line: o.line, ops: int64(o.cost)})
		}
	}
	return err
}

// prepare makes room for fc's frame at stack offset base and fills it
// from the context's frame image: registers zero, constants and global
// addresses in place.
func (ex *exec) prepare(fc *funcCode, base int) []uint64 {
	end := base + int(fc.frame)
	if end > len(ex.stack) {
		n := 2 * len(ex.stack)
		if n < end {
			n = end + 1024
		}
		stack := make([]uint64, n)
		copy(stack, ex.stack[:base])
		ex.stack = stack
	}
	frame := ex.stack[base:end]
	copy(frame, ex.image[fc.off:fc.off+fc.frame])
	return frame
}

// run is the dispatch loop: it executes fc in the frame at stack offset
// base and returns its result bits. One loop serves every context — CPU
// root, kernel worker, CPU fallback and inspector; what differs between
// them is data (frame image, inline caches, scratch base), not code.
func (ex *exec) run(fc *funcCode, base int) (uint64, error) {
	in := ex.in
	code := in.code
	insts := code.insts
	mach := in.Mach
	ic := ex.ic
	prof := ex.prof
	race := ex.race
	insp := ex.insp
	regs := ex.stack[base : base+int(fc.frame)]
	cpuAllocas := len(ex.allocas)
	scratchNext, scratchLen := ex.scratchNext, len(ex.scratchSegs)

	pc := fc.entry
	var addr uint64 // of the memory access being executed
	for {
		i := &insts[pc]
		pc++
	dispatch:
		switch i.op {
		case opCharge:
			goto charge

		case opMove:
			regs[i.dst] = regs[i.a]
		case opAdd:
			regs[i.dst] = regs[i.a] + regs[i.b]
		case opSub:
			regs[i.dst] = regs[i.a] - regs[i.b]
		case opMul:
			regs[i.dst] = uint64(int64(regs[i.a]) * int64(regs[i.b]))
		case opDiv:
			b := int64(regs[i.b])
			if b == 0 {
				return 0, ex.faultAt(pc-1, &Error{Fn: fc.name, Msg: "integer division by zero"})
			}
			regs[i.dst] = uint64(int64(regs[i.a]) / b)
		case opRem:
			b := int64(regs[i.b])
			if b == 0 {
				return 0, ex.faultAt(pc-1, &Error{Fn: fc.name, Msg: "integer remainder by zero"})
			}
			regs[i.dst] = uint64(int64(regs[i.a]) % b)
		case opAnd:
			regs[i.dst] = regs[i.a] & regs[i.b]
		case opOr:
			regs[i.dst] = regs[i.a] | regs[i.b]
		case opXor:
			regs[i.dst] = regs[i.a] ^ regs[i.b]
		case opShl:
			regs[i.dst] = regs[i.a] << (regs[i.b] & 63)
		case opShr:
			regs[i.dst] = uint64(int64(regs[i.a]) >> (regs[i.b] & 63))
		case opEq:
			regs[i.dst] = b2i(regs[i.a] == regs[i.b])
		case opNe:
			regs[i.dst] = b2i(regs[i.a] != regs[i.b])
		case opLt:
			regs[i.dst] = b2i(int64(regs[i.a]) < int64(regs[i.b]))
		case opLe:
			regs[i.dst] = b2i(int64(regs[i.a]) <= int64(regs[i.b]))
		case opGt:
			regs[i.dst] = b2i(int64(regs[i.a]) > int64(regs[i.b]))
		case opGe:
			regs[i.dst] = b2i(int64(regs[i.a]) >= int64(regs[i.b]))

		case opFAdd:
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.a]) + ir.B2F(regs[i.b]))
		case opFSub:
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.a]) - ir.B2F(regs[i.b]))
		case opFMul:
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.a]) * ir.B2F(regs[i.b]))
		case opFDiv:
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.a]) / ir.B2F(regs[i.b]))
		case opFRem:
			regs[i.dst] = ir.F2B(math.Mod(ir.B2F(regs[i.a]), ir.B2F(regs[i.b])))
		case opFEq:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) == ir.B2F(regs[i.b]))
		case opFNe:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) != ir.B2F(regs[i.b]))
		case opFLt:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) < ir.B2F(regs[i.b]))
		case opFLe:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) <= ir.B2F(regs[i.b]))
		case opFGt:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) > ir.B2F(regs[i.b]))
		case opFGe:
			regs[i.dst] = b2i(ir.B2F(regs[i.a]) >= ir.B2F(regs[i.b]))
		case opIToF:
			regs[i.dst] = ir.F2B(float64(int64(regs[i.a])))
		case opFToI:
			regs[i.dst] = uint64(int64(ir.B2F(regs[i.a])))
		case opMulAdd:
			regs[i.dst] = regs[i.a]*regs[i.b] + regs[i.d]
		case opFMulAdd: // float64(...) forbids contraction into one FMA
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.d]) + float64(ir.B2F(regs[i.a])*ir.B2F(regs[i.b])))
		case opFMulSub:
			regs[i.dst] = ir.F2B(ir.B2F(regs[i.d]) - float64(ir.B2F(regs[i.a])*ir.B2F(regs[i.b])))

		case opAlloca:
			// The slot doubles as the frame's record of the unit: a loop
			// re-executing the alloca reuses it (C scope re-entry).
			if regs[i.dst] == 0 {
				at := code.origs[code.sites[pc-1].orig]
				unit, err := ex.alloca(fc, code.allocas[i.a], i.b != 0, int(at.line))
				if err != nil {
					return 0, ex.faultAt(pc-1, err)
				}
				regs[i.dst] = unit
				ex.ops += costAllocaFirst
				if prof != nil {
					prof[pc-1] += costAllocaFirst
				}
			}

		case opLoad8:
			addr = regs[i.a]
			goto load8
		case opLoadA8:
			addr = regs[i.a] + regs[i.b]
			goto load8
		case opLoadMA8:
			addr = regs[i.a] + uint64(int64(regs[i.b])*int64(regs[i.d]))
			goto load8
		case opLoadMMA8:
			addr = regs[i.a] + (regs[i.b]*regs[i.d]+regs[i.e])<<3
			goto load8
		case opLoad1:
			addr = regs[i.a]
			c := &ic[i.c]
			if off := addr - c.base; off < uint64(len(c.data)) && c.gen == mach.Gen() {
				regs[i.dst] = uint64(c.data[off])
			} else {
				v, err := ex.load(fc, addr, 1, c)
				if err != nil {
					return 0, ex.faultAt(pc-1, err)
				}
				regs[i.dst] = v
			}
		case opStore8:
			addr = regs[i.a]
			goto store8
		case opStoreA8:
			addr = regs[i.a] + regs[i.b]
			goto store8
		case opStoreMA8:
			addr = regs[i.a] + uint64(int64(regs[i.b])*int64(regs[i.d]))
			goto store8
		case opStoreMMA8:
			addr = regs[i.a] + (regs[i.b]*regs[i.d]+regs[i.e])<<3
			goto store8
		case opStore1:
			addr = regs[i.a]
			c := &ic[i.c]
			if off := addr - c.base; off < uint64(len(c.data)) && c.gen == mach.Gen() {
				c.data[off] = byte(regs[i.dst])
				if race != nil {
					race.record(addr, 1)
				}
			} else if err := ex.store(fc, addr, 1, regs[i.dst], c); err != nil {
				return 0, ex.faultAt(pc-1, err)
			}

		case opPure:
			regs[i.dst] = pureIntrinsic(ir.IntrinsicID(i.c), regs[i.a], regs[i.b])
		case opTid:
			if !ex.worker {
				return 0, ex.faultAt(pc-1, &Error{Fn: fc.name, Msg: "tid() outside kernel"})
			}
			regs[i.dst] = uint64(ex.tid)
		case opNtid:
			if !ex.worker {
				return 0, ex.faultAt(pc-1, &Error{Fn: fc.name, Msg: "ntid() outside kernel"})
			}
			regs[i.dst] = uint64(ex.ntid)

		case opBr:
			pc = i.c
			goto jump
		case opCondBr:
			pc = branch(regs[i.a] != 0, i)
			goto jump
		case opBrEq:
			pc = branch(regs[i.a] == regs[i.b], i)
			goto jump
		case opBrNe:
			pc = branch(regs[i.a] != regs[i.b], i)
			goto jump
		case opBrLt:
			pc = branch(int64(regs[i.a]) < int64(regs[i.b]), i)
			goto jump
		case opBrLe:
			pc = branch(int64(regs[i.a]) <= int64(regs[i.b]), i)
			goto jump
		case opBrGt:
			pc = branch(int64(regs[i.a]) > int64(regs[i.b]), i)
			goto jump
		case opBrGe:
			pc = branch(int64(regs[i.a]) >= int64(regs[i.b]), i)
			goto jump
		case opBrFEq:
			pc = branch(ir.B2F(regs[i.a]) == ir.B2F(regs[i.b]), i)
			goto jump
		case opBrFNe:
			pc = branch(ir.B2F(regs[i.a]) != ir.B2F(regs[i.b]), i)
			goto jump
		case opBrFLt:
			pc = branch(ir.B2F(regs[i.a]) < ir.B2F(regs[i.b]), i)
			goto jump
		case opBrFLe:
			pc = branch(ir.B2F(regs[i.a]) <= ir.B2F(regs[i.b]), i)
			goto jump
		case opBrFGt:
			pc = branch(ir.B2F(regs[i.a]) > ir.B2F(regs[i.b]), i)
			goto jump
		case opBrFGe:
			pc = branch(ir.B2F(regs[i.a]) >= ir.B2F(regs[i.b]), i)
			goto jump
		case opAddBrLt:
			regs[i.dst] = regs[i.a] + regs[i.b]
			pc = branch(int64(regs[i.dst]) < int64(regs[i.e]), i)
			goto jump

		case opRet, opRetVoid:
			var ret uint64
			if i.op == opRet {
				ret = regs[i.a]
			}
			if ex.worker {
				// Kernel allocas live in the scratch arena: unwind the
				// stack allocator to the frame's entry watermark.
				ex.scratchSegs = ex.scratchSegs[:scratchLen]
				ex.scratchNext = scratchNext
			} else if len(ex.allocas) > cpuAllocas {
				ex.popAllocas(cpuAllocas)
			}
			return ret, nil

		case opCall:
			if err := ex.step(fc); err != nil {
				return 0, err
			}
			callee := &code.funcs[i.c]
			top := base + int(fc.frame)
			frame := ex.prepare(callee, top)
			regs = ex.stack[base:top] // prepare may have moved the stack
			for j, s := range code.args[i.a : i.a+i.b] {
				frame[j] = regs[s]
			}
			v, err := ex.invoke(callee, top)
			if err != nil {
				return 0, err
			}
			regs = ex.stack[base:top]
			if i.dst >= 0 {
				regs[i.dst] = v
			}
			ex.ops += costCall
			if prof != nil {
				prof[pc-1] += costCall
			}

		case opIntrinsic:
			if err := ex.step(fc); err != nil {
				return 0, err
			}
			args := ex.args[:0]
			for _, s := range code.args[i.a : i.a+i.b] {
				args = append(args, regs[s])
			}
			ex.args = args
			line := code.origs[code.sites[pc-1].orig].line
			v, cost, err := ex.intrinsic(fc, ir.IntrinsicID(i.c), int(line), args)
			if err != nil {
				return 0, err
			}
			if i.dst >= 0 {
				regs[i.dst] = v
			}
			ex.ops += cost
			if prof != nil {
				prof[pc-1] += cost
			}

		case opLaunch:
			if err := ex.step(fc); err != nil {
				return 0, err
			}
			if ex.worker {
				return 0, &Error{Fn: fc.name, Msg: "nested kernel launch"}
			}
			// The threads run on worker contexts, so the root's intrinsic
			// scratch is free to hold the operands for the whole launch.
			args := ex.args[:0]
			for _, s := range code.args[i.a : i.a+i.b] {
				args = append(args, regs[s])
			}
			ex.args = args
			line := code.origs[code.sites[pc-1].orig].line
			if err := ex.launch(&code.funcs[i.c], int(line), args); err != nil {
				return 0, err
			}
			// The machine charged the launch; the instruction itself is free.

		default: // opFault
			return 0, ex.faultAt(pc-1, &Error{Fn: fc.name, Msg: code.msgs[i.a]})
		}
		continue

	load8:
		if c := &ic[i.c]; addr-c.base < c.lim8 && c.gen == mach.Gen() {
			regs[i.dst] = binary.LittleEndian.Uint64(c.data[addr-c.base:])
		} else {
			v, err := ex.load(fc, addr, 8, c)
			if err != nil {
				return 0, ex.faultAt(pc-1, err)
			}
			regs[i.dst] = v
		}
		continue

	store8:
		if c := &ic[i.c]; addr-c.base < c.lim8 && c.gen == mach.Gen() {
			binary.LittleEndian.PutUint64(c.data[addr-c.base:], regs[i.dst])
			if race != nil {
				race.record(addr, 8)
			}
		} else if err := ex.store(fc, addr, 8, regs[i.dst], c); err != nil {
			return 0, ex.faultAt(pc-1, err)
		}
		continue

	jump:
		// A branch applies the opCharge heading its target itself, so
		// entering a run costs no dispatch of its own.
		i = &insts[pc]
		pc++
		if i.op != opCharge {
			goto dispatch
		}
	charge:
		if ex.budget -= int64(i.b); ex.budget < 0 {
			if err := ex.refill(fc); err != nil {
				return 0, err
			}
		}
		ex.ops += int64(i.a)
		if prof != nil {
			prof[pc-1]++
		}
		if insp != nil {
			insp.acc += int64(i.c) // the run's promoted accesses touch no memory
		}
	}
}

// invoke runs function fc in the frame prepare made at stack offset
// base, into whose parameter slots the caller has stored the arguments.
func (ex *exec) invoke(fc *funcCode, base int) (uint64, error) {
	if ex.depth++; ex.depth > ex.in.depthLimit {
		ex.depth--
		return 0, &Error{Fn: fc.name, Msg: "call depth limit exceeded"}
	}
	ret, err := ex.run(fc, base)
	ex.depth--
	return ret, err
}

// Write implements io.Writer for worker contexts: kernel-side output is
// buffered per chunk and replayed in thread order after the barrier.
func (ex *exec) Write(p []byte) (int, error) {
	if *ex.outSlot == nil {
		*ex.outSlot = new(bytes.Buffer)
	}
	return (*ex.outSlot).Write(p)
}

// checkSpace validates that an access belongs to the executing context's
// address space.
func (ex *exec) checkSpace(fc *funcCode, addr uint64, write bool) error {
	space := machine.SpaceOf(addr)
	onGPU := ex.worker && !ex.hostMem
	if (space == machine.GPU) == onGPU {
		return nil
	}
	what := "read"
	if write {
		what = "write"
	}
	if onGPU {
		return &Error{Fn: fc.name, Msg: fmt.Sprintf(
			"GPU kernel %s of CPU address %#x (missing or incorrect communication management)", what, addr)}
	}
	return &Error{Fn: fc.name, Msg: fmt.Sprintf(
		"CPU %s of GPU address %#x (stale translation or missing unmap)", what, addr)}
}

// branch selects a conditional terminator's target pc.
func branch(taken bool, i *inst) int32 {
	if taken {
		return i.c
	}
	return i.d
}

func (ex *exec) flushOps() {
	if !ex.worker && ex.ops > 0 {
		ex.in.Mach.CPUOps(ex.ops)
		ex.ops = 0
	}
}

// popAllocas expires the CPU-frame allocation units created since the
// frame's entry mark.
func (ex *exec) popAllocas(mark int) {
	in := ex.in
	for i := len(ex.allocas) - 1; i >= mark; i-- {
		base := ex.allocas[i]
		in.RT.RemoveAlloca(base)
		_ = in.Mach.Free(machine.CPU, base)
	}
	ex.allocas = ex.allocas[:mark]
}

// recordInspect notes one inspector-mode memory access. Scratch
// addresses are kernel-frame locals that exist on the device and are
// never transferred, so they are not recorded.
func (ex *exec) recordInspect(addr uint64, write bool) {
	st := ex.insp
	st.acc++
	if addr-ex.scratchBase < scratchStride {
		return
	}
	if info := ex.in.RT.Lookup(addr); info != nil {
		st.touched[info.Base] = true
		if write {
			st.wrote[info.Base] = true
		}
	}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
