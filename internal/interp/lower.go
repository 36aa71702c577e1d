package interp

import (
	"cgcm/internal/ir"
)

// Lowering turns a finished *ir.Module into flat code once, on the first
// interp.New for it, and memoises the result on the module (ir.Module.
// Derived), so compilation does none of this work and every later run —
// concurrent ones included — dispatches on the same read-only arrays.
//
// Layout. Every function's instructions sit in one module-wide []inst;
// a function is an entry pc plus a frame size. A frame is a window of the
// context's value stack holding, in order, the function's registers, its
// distinct constants and the addresses of the globals it names, so an
// operand is always one indexed read: no kind switch, no map. The frame's
// initial contents (zero registers, constants, global addresses) are a
// slice of a per-space image that a call copies in.
//
// Charging. A straight-line run of instructions whose op cost is known
// at lowering is headed by one opCharge carrying the run's summed cost
// and step count; a branch into a run applies its opCharge itself, so the
// opCharge is dispatched only at function entry and after a
// self-charging instruction. A run ends before every instruction that
// charges itself: calls (their cost lands after the callee returns),
// launches, and the intrinsics that flush the CPU op counter to the
// machine, print, consume the RNG or cost a data-dependent amount. It
// ends at a block end too, but for two branches that become part of it.
// A br to the next block in layout order that is the only way into it
// emits nothing, and that block's instructions continue the run. A br
// back to a block that lowered to an opCharge and a conditional branch
// alone (a loop header) becomes a copy of that branch, and the run takes
// in what the header's opCharge carries: copies of its origs entries and
// its inspector count. So the machine receives the same op counts at the
// same points of the timeline as when every instruction charged itself.
// The origs table keeps each original instruction's line and cost, in
// program order but for the copies a copied test appends; a run is a
// contiguous range of it, which is what lets a fault part-way through a
// run give back exactly the unexecuted tail, and the profiler attribute a
// run's executions to source lines.
//
// Fusion. The patterns that make up most of every loop become single
// instructions: integer add (optionally of an integer multiply, and that
// optionally of a row-major index add(mul(x, y), z) by 8) feeding the
// address of one 8-byte load or store; a compare feeding a conditional
// branch; a multiply feeding an add (integer or float) or the subtrahend
// of a float subtract, whose float forms round the product before adding,
// as the two instructions do. The absorbed instructions keep their entries
// in origs, so cost, steps and line attribution are the sum of the parts;
// they are absorbed only when the consumer is their single use, in the
// same block, and their own operands are defined before them, so no
// register they read can change between their place and the consumer's.
// A latch's add that a copied < test reads right after it becomes one
// opAddBrLt; the add still writes its destination.
//
// Promotion. An 8-byte alloca whose every use is the address of a whole
// 8-byte load or store has an address nothing can observe, so its value
// lives in one more frame slot (zero in the image, like fresh memory) and
// its accesses touch no memory. opAlloca still runs — the unit is created,
// declared and charged as before — so addresses and every simulated number
// stay put; each access keeps its origs entry at memory cost inside its
// run, and the run's opCharge counts it for the inspector in c. Per block,
// a load emits nothing and its readers read the slot when all of them are
// in its block and the slot is not written after the load and before the
// last of them (an absorbed instruction reads where its consumer runs); a
// store emits nothing when the instruction computing its value — same
// block, single use, no access to the local between them — can write the
// slot itself; any other access is one opMove.

type opcode uint8

const (
	opCharge opcode = iota // ops += a, steps -= b; c promoted accesses for the inspector
	opMove                 // dst = regs[a]

	opAdd
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFRem
	opFEq
	opFNe
	opFLt
	opFLe
	opFGt
	opFGe
	opIToF
	opFToI
	opMulAdd  // dst = regs[a]*regs[b] + regs[d]
	opFMulAdd // dst = regs[d] + regs[a]*regs[b], the product rounded first
	opFMulSub // dst = regs[d] - regs[a]*regs[b], the product rounded first

	opAlloca // dst = stack unit of allocas[a], created on first execution in a frame

	// Memory: a = address slot, c = inline-cache slot; stores read the
	// value from dst. The A forms address regs[a]+regs[b], the MA forms
	// regs[a]+regs[b]*regs[d], the MMA forms regs[a]+(regs[b]*regs[d]+regs[e])*8.
	opLoad8
	opLoad1
	opLoadA8
	opLoadMA8
	opLoadMMA8
	opStore8
	opStore1
	opStoreA8
	opStoreMA8
	opStoreMMA8

	opPure // dst = pureIntrinsic(c, regs[a], regs[b])
	opTid
	opNtid

	// Terminators: c (and d, the false edge) are target pcs. A branch
	// whose target is an opCharge executes that charge itself.
	opBr
	opCondBr
	opBrEq
	opBrNe
	opBrLt
	opBrLe
	opBrGt
	opBrGe
	opBrFEq
	opBrFNe
	opBrFLt
	opBrFLe
	opBrFGt
	opBrFGe
	opAddBrLt // dst = regs[a]+regs[b], then as opBrLt of regs[dst] and regs[e]
	opRet     // a = value slot
	opRetVoid

	// Self-charging instructions; args[a:a+b] are the operand slots.
	opCall      // c = callee index
	opIntrinsic // c = intrinsic id
	opLaunch    // c = kernel index

	opFault // fails with msgs[a]
)

// inst is one lowered instruction. Field use depends on op (see above).
type inst struct {
	op            opcode
	dst           int32
	a, b, c, d, e int32
}

// site is the cold half of an instruction: which original instruction it
// stands for (for a fused one, the component that can fault — the memory
// access) and the opCharge heading its run, -1 for a self-charging one.
type site struct {
	orig int32
	run  int32
}

// origInstr is one IR instruction's source line and static op cost.
type origInstr struct {
	line int32
	cost int32
}

type funcCode struct {
	name   string
	alloca string // allocation-unit label of CPU-frame allocas
	kalloc string // ... and of kernel-scratch allocas
	entry  int32
	off    int32 // frame image offset
	frame  int32 // frame length in slots
	params int32
}

type globalFix struct {
	pos    int32 // slot in the frame image
	global int32 // index into Module.Globals
}

// code is a module's lowered form. It is immutable once built: anything
// an execution mutates (inline caches, profile counters, frames) lives in
// the Interp or its contexts, indexed by the numbers assigned here.
type code struct {
	insts   []inst
	sites   []site
	origs   []origInstr
	funcs   []funcCode
	args    []int32
	allocas []int64 // alloca sizes
	msgs    []string
	image   []uint64
	fixes   []globalFix
	numIC   int32 // inline-cache slots, one per memory instruction
	mainFn  int32 // -1 when absent
	initFn  int32
}

// lowered returns mod's flat code, lowering it on first use.
func lowered(mod *ir.Module) *code {
	c, _ := mod.Derived(func(m *ir.Module) any { return lower(m) }).(*code)
	return c
}

// Op costs, as the machine's timing model counts them.
const (
	costDefault = 1
	costMemory  = 3
	costCall    = 5
	// An alloca costs 2 the first time it executes in a frame and 1 when
	// a loop re-executes it: 1 is charged with its run, the other when the
	// unit is created.
	costAllocaFirst = 1
)

func lower(mod *ir.Module) *code {
	c := &code{mainFn: -1, initFn: -1, funcs: make([]funcCode, len(mod.Funcs))}
	funcIndex := make(map[*ir.Func]int32, len(mod.Funcs))
	for i, f := range mod.Funcs {
		funcIndex[f] = int32(i)
		switch f.Name {
		case "main":
			c.mainFn = int32(i)
		case "__cgcm_init":
			c.initFn = int32(i)
		}
	}
	globalIndex := make(map[*ir.Global]int32, len(mod.Globals))
	for i, g := range mod.Globals {
		globalIndex[g] = int32(i)
	}
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	// Copied loop tests add origs entries; merged branches and fusion take
	// back more instructions than the opCharges add.
	c.origs = make([]origInstr, 0, n+n/4)
	c.insts = make([]inst, 0, n)
	c.sites = make([]site, 0, n)
	l := &lowerer{
		c: c, funcIndex: funcIndex, globalIndex: globalIndex,
		consts: make(map[uint64]int32), globals: make(map[int32]int32),
	}
	for i, f := range mod.Funcs {
		l.lowerFunc(&c.funcs[i], f)
	}
	return c
}

// lowerer holds lowering scratch; the maps exist only while lowering.
type lowerer struct {
	c           *code
	funcIndex   map[*ir.Func]int32
	globalIndex map[*ir.Global]int32

	// Per function.
	f       *ir.Func
	consts  map[uint64]int32
	globals map[int32]int32
	extra   []uint64    // frame image past the registers
	regs    []regInfo   // per register
	blocks  []blockInfo // per block
	block   int         // index of the block being lowered
	run     int32       // pc of the open run's opCharge, -1 when none
}

// blockInfo is what lowering knows about one block.
type blockInfo struct {
	preds int32 // branch edges into it
	pc    int32 // its first lowered instruction
}

// regInfo is what lowering knows about one register. Positions count
// instructions in program order.
type regInfo struct {
	uses     int32 // operands that read it
	pos      int32 // position of its definition
	absorbed bool  // its consumer computes it
	last     int32 // latest position an operand reads it; elsewhere: some read is in another block
	// slot stands for the register when positive: for an alloca the
	// promoted local's slot (-1 when its address escapes), for a load the
	// local whose slot its readers read, for any other instruction the
	// local whose slot it writes.
	slot int32
	// Forwarding candidates: an alloca heads, 1-based, the chain of loads
	// of it since its last write, each load linking to the one before.
	link   int32
	access int32 // alloca: position of the latest load or store of it
}

const elsewhere = int32(1<<31 - 1)

func (l *lowerer) lowerFunc(fc *funcCode, f *ir.Func) {
	c := l.c
	*fc = funcCode{
		name: f.Name, alloca: "alloca " + f.Name, kalloc: "kalloca " + f.Name,
		entry: int32(len(c.insts)), off: int32(len(c.image)), params: int32(len(f.Params)),
	}
	l.f = f
	clear(l.consts)
	clear(l.globals)
	l.extra = l.extra[:0]
	l.regs = resize(l.regs, f.NumRegs)
	l.blocks = resize(l.blocks, len(f.Blocks))
	l.run = -1

	n := int32(0)
	f.Instrs(func(in *ir.Instr) {
		for _, t := range in.Targets {
			if l.ownBlock(t) {
				l.blocks[t.Index].preds++
			}
		}
		for i, a := range in.Args {
			d, ok := a.(*ir.Instr)
			if !ok || !l.hasReg(d) {
				continue
			}
			r := &l.regs[d.Reg]
			r.uses++
			if d.Block != in.Block {
				r.last = elsewhere
			} else if r.last < n {
				r.last = n
			}
			if d.Op == ir.OpAlloca && (i != 0 || !l.wholeAccess(in)) {
				r.slot = -1
			}
		}
		if l.hasReg(in) {
			l.regs[in.Reg].pos = n
		}
		n++
	})

	if len(f.Blocks) == 0 {
		l.fault(0, "function has no blocks")
	}
	first := len(c.insts)
	base := int32(0)
	for bi, b := range f.Blocks {
		l.blocks[bi].pc = int32(len(c.insts))
		l.block = bi
		l.lowerBlock(b, base)
		base += int32(len(b.Instrs))
	}
	// Branch targets were recorded as block indices.
	for pc := first; pc < len(c.insts); pc++ {
		in := &c.insts[pc]
		if in.op == opBr {
			in.c = l.blocks[in.c].pc
		} else if in.op >= opCondBr && in.op <= opAddBrLt {
			in.c, in.d = l.blocks[in.c].pc, l.blocks[in.d].pc
		}
	}

	fc.frame = int32(f.NumRegs + len(l.extra))
	c.image = append(c.image, make([]uint64, f.NumRegs)...)
	c.image = append(c.image, l.extra...)
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// hasReg reports whether in owns a register of the current function.
func (l *lowerer) hasReg(in *ir.Instr) bool {
	return in.Reg >= 0 && in.Reg < l.f.NumRegs
}

// wholeAccess reports whether in is a well-formed 8-byte load or store,
// the only use that leaves an alloca promotable.
func (l *lowerer) wholeAccess(in *ir.Instr) bool {
	return in.Size == 8 && (in.Op == ir.OpLoad && len(in.Args) == 1 && l.hasReg(in) ||
		in.Op == ir.OpStore && len(in.Args) == 2)
}

// local returns the promoted local that the load or store in accesses,
// giving it its frame slot on first sight; nil when in is no such access.
func (l *lowerer) local(in *ir.Instr) *regInfo {
	if in.Op != ir.OpLoad && in.Op != ir.OpStore || len(in.Args) == 0 {
		return nil
	}
	a, ok := in.Args[0].(*ir.Instr)
	if !ok || a.Op != ir.OpAlloca || a.Size != 8 || !l.hasReg(a) || l.regs[a.Reg].slot < 0 {
		return nil
	}
	x := &l.regs[a.Reg]
	if x.slot == 0 {
		x.slot = l.extraSlot(0)
	}
	return x
}

// slot returns the frame slot that holds v.
func (l *lowerer) slot(v ir.Value) int32 {
	switch v := v.(type) {
	case *ir.Param:
		return int32(v.Reg)
	case *ir.Instr:
		if l.hasReg(v) {
			if s := l.regs[v.Reg].slot; s > 0 {
				return s
			}
			return int32(v.Reg)
		}
	case *ir.Const:
		return l.constSlot(v.Bits)
	case *ir.GlobalRef:
		if g, ok := l.globalIndex[v.Global]; ok {
			s, ok := l.globals[g]
			if !ok {
				s = l.extraSlot(0)
				l.globals[g] = s
				l.c.fixes = append(l.c.fixes, globalFix{pos: int32(len(l.c.image)) + s, global: g})
			}
			return s
		}
	}
	return l.constSlot(0) // malformed operand: reads as zero
}

func (l *lowerer) constSlot(bits uint64) int32 {
	s, ok := l.consts[bits]
	if !ok {
		s = l.extraSlot(bits)
		l.consts[bits] = s
	}
	return s
}

func (l *lowerer) extraSlot(v uint64) int32 {
	l.extra = append(l.extra, v)
	return int32(l.f.NumRegs + len(l.extra) - 1)
}

// emit appends one instruction standing for original instruction orig.
func (l *lowerer) emit(in inst, orig int32) {
	l.c.insts = append(l.c.insts, in)
	l.c.sites = append(l.c.sites, site{orig: orig, run: l.run})
}

// account enters one original instruction into origs. A statically
// costed one joins the open run, opening it first if need be; a
// self-charging one (static false) closes it.
func (l *lowerer) account(line int32, cost int32, static bool) int32 {
	c := l.c
	orig := int32(len(c.origs))
	c.origs = append(c.origs, origInstr{line: line, cost: cost})
	if !static {
		l.run = -1
		return orig
	}
	if l.run < 0 {
		l.run = int32(len(c.insts))
		l.emit(inst{op: opCharge}, orig)
	}
	head := &c.insts[l.run]
	head.a += cost
	head.b++
	return orig
}

// fault emits an instruction that fails with msg, accounted as one
// zero-cost instruction of the open run.
func (l *lowerer) fault(line int32, msg string) {
	orig := l.account(line, 0, true)
	l.c.msgs = append(l.c.msgs, msg)
	l.emit(inst{op: opFault, a: int32(len(l.c.msgs) - 1)}, orig)
}

// argList stores the operand slots of a self-charging instruction.
func (l *lowerer) argList(vals []ir.Value) (off, n int32) {
	off = int32(len(l.c.args))
	for _, v := range vals {
		l.c.args = append(l.c.args, l.slot(v))
	}
	return off, int32(len(vals))
}

// operandsSettled reports whether every instruction operand of x that
// lives in x's block is defined ahead of x there, i.e. x reads nothing a
// later instruction of the same block execution will overwrite.
func (l *lowerer) operandsSettled(x *ir.Instr) bool {
	for _, a := range x.Args {
		if d, ok := a.(*ir.Instr); ok && d.Block == x.Block {
			if !l.hasReg(d) || l.regs[d.Reg].pos >= l.regs[x.Reg].pos {
				return false
			}
		}
	}
	return true
}

// absorbable returns v when it is a two-operand instruction of the wanted
// kind whose only use is the consumer at program position at in block b,
// so the consumer may compute it itself; nil otherwise.
func (l *lowerer) absorbable(v ir.Value, b *ir.Block, at int32, wanted func(*ir.Instr) bool) *ir.Instr {
	x, ok := v.(*ir.Instr)
	if !ok || x.Block != b || !l.hasReg(x) || len(x.Args) != 2 || !wanted(x) {
		return nil
	}
	if r := &l.regs[x.Reg]; r.uses != 1 || r.pos >= at || !l.operandsSettled(x) {
		return nil
	}
	return x
}

// retargetable returns the instruction computing v when it can write
// promoted local x in place of the store at position at: it is in block
// b, the store is its single use, it writes nothing but its destination,
// and no access to x lies between the two.
func (l *lowerer) retargetable(v ir.Value, b *ir.Block, at int32, x *regInfo) *ir.Instr {
	d, ok := v.(*ir.Instr)
	if !ok || d.Block != b || !l.hasReg(d) {
		return nil
	}
	if r := &l.regs[d.Reg]; r.uses != 1 || r.absorbed || r.pos >= at || r.pos <= x.access {
		return nil
	}
	switch {
	case d.Op >= ir.OpAdd && d.Op <= ir.OpFToI, d.Op == ir.OpLoad && l.local(d) == nil:
		return d
	}
	return nil
}

func isIntAdd(x *ir.Instr) bool   { return x.Op == ir.OpAdd && !x.Float }
func isIntMul(x *ir.Instr) bool   { return x.Op == ir.OpMul && !x.Float }
func isFloatMul(x *ir.Instr) bool { return x.Op == ir.OpMul && x.Float }
func isCompare(x *ir.Instr) bool  { return x.Op >= ir.OpEq && x.Op <= ir.OpGe }

// product returns the multiply that the add or subtract x computes itself,
// nil when none: a single-use multiply of x's kind on either side of an
// add that no address absorbed, or as a float subtract's subtrahend.
func (l *lowerer) product(x *ir.Instr) *ir.Instr {
	if !l.hasReg(x) || len(x.Args) != 2 || l.regs[x.Reg].absorbed {
		return nil
	}
	switch {
	case x.Op == ir.OpAdd && x.Float:
		return l.inner(x, isFloatMul)
	case x.Op == ir.OpAdd:
		return l.inner(x, isIntMul)
	case x.Op == ir.OpSub && x.Float:
		return l.absorbable(x.Args[1], x.Block, l.regs[x.Reg].pos, isFloatMul)
	}
	return nil
}

// fusedAddress returns the instructions the 8-byte memory instruction m
// at position at computes its address from, outermost first and nil past
// the last: the add feeding the address; a multiply that is an operand of
// that add; and, when the multiply scales a row-major index
// add(mul(x, y), z) by 8, that add and its multiply.
func (l *lowerer) fusedAddress(m *ir.Instr, at int32) (p [4]*ir.Instr) {
	if m.Size != 8 || len(m.Args) == 0 {
		return p
	}
	if p[0] = l.absorbable(m.Args[0], m.Block, at, isIntAdd); p[0] == nil {
		return p
	}
	if p[1] = l.inner(p[0], isIntMul); p[1] == nil {
		return p
	}
	if idx := l.inner(p[1], isIntAdd); idx != nil {
		if k, ok := other(p[1], idx).(*ir.Const); ok && !k.Float && k.Bits == 8 {
			if row := l.inner(idx, isIntMul); row != nil {
				p[2], p[3] = idx, row
			}
		}
	}
	return p
}

// inner returns an operand of x, the second one first, that x can compute
// itself.
func (l *lowerer) inner(x *ir.Instr, wanted func(*ir.Instr) bool) *ir.Instr {
	for _, i := range [2]int{1, 0} {
		if y := l.absorbable(x.Args[i], x.Block, l.regs[x.Reg].pos, wanted); y != nil {
			return y
		}
	}
	return nil
}

// other returns the operand of the two-operand x that y is not.
func other(x, y *ir.Instr) ir.Value {
	if x.Args[0] == ir.Value(y) {
		return x.Args[1]
	}
	return x.Args[0]
}

// lowerBlock lowers b, whose first instruction has program position base.
func (l *lowerer) lowerBlock(b *ir.Block, base int32) {
	// First pass: which instructions their consumer computes.
	for i, in := range b.Instrs {
		at := base + int32(i)
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			for _, x := range l.fusedAddress(in, at) {
				if x != nil {
					l.absorb(x, at)
				}
			}
		case ir.OpCondBr:
			if len(in.Args) == 1 {
				if cmp := l.absorbable(in.Args[0], b, at, isCompare); cmp != nil {
					l.absorb(cmp, at)
				}
			}
		}
	}

	// Second pass, once the first has settled which adds an address
	// absorbs: which multiplies their add or subtract computes.
	for i, in := range b.Instrs {
		if m := l.product(in); m != nil {
			l.absorb(m, base+int32(i))
		}
	}

	// Third pass: which loads of promoted locals forward and which stores
	// retarget. A load starts out forwarded; a write to its local landing
	// after it and before its last reader takes that back.
	for i, in := range b.Instrs {
		at := base + int32(i)
		x := l.local(in)
		if x == nil {
			continue
		}
		if in.Op == ir.OpLoad {
			if r := &l.regs[in.Reg]; r.last != elsewhere {
				r.slot, r.link, x.link = x.slot, x.link, int32(in.Reg)+1
			}
			x.access = at
			continue
		}
		w := at
		if d := l.retargetable(in.Args[1], b, at, x); d != nil {
			l.regs[d.Reg].slot = x.slot
			w = l.regs[d.Reg].pos
		}
		for p := x.link; p != 0; p = l.regs[p-1].link {
			if r := &l.regs[p-1]; r.last > w {
				r.slot = 0
			}
		}
		x.link, x.access = 0, at
	}

	// Fourth pass: emit. An instruction its consumer computes, and a br the
	// next block's run continues, only join the run.
	fall := l.fallsThrough(b)
	for i, in := range b.Instrs {
		if l.hasReg(in) && l.regs[in.Reg].absorbed || fall && i == len(b.Instrs)-1 {
			l.account(in.Line, costDefault, true)
		} else if x := l.local(in); x != nil {
			l.lowerLocal(in, x)
		} else {
			l.lowerInstr(in, base+int32(i))
		}
	}
	if b.Terminator() == nil {
		l.fault(0, "block "+b.Name+" fell through without terminator")
	}
	if !fall {
		l.run = -1
	}
}

// fallsThrough reports whether b ends in a br to the next block in layout
// order that is that block's only way in. The br then emits nothing: the
// next block's instructions continue b's run.
func (l *lowerer) fallsThrough(b *ir.Block) bool {
	br, next := b.Terminator(), l.block+1
	return br != nil && br.Op == ir.OpBr && len(br.Targets) == 1 && l.ownBlock(br.Targets[0]) &&
		br.Targets[0].Index == next && l.blocks[next].preds == 1
}

// loopTest reports whether block t, already lowered, lowered to an
// opCharge and a conditional branch alone: a loop header once its loads
// are forwarded and its compare fused. Such a block cannot fault.
func (l *lowerer) loopTest(t int) bool {
	if t >= l.block || l.blocks[t+1].pc != l.blocks[t].pc+2 {
		return false
	}
	pc := l.blocks[t].pc
	op := l.c.insts[pc+1].op
	return l.c.insts[pc].op == opCharge && op >= opCondBr && op <= opBrFGe
}

// copyLoopTest lowers a br at line to loop test t as a copy of t's branch,
// whose block-index targets the function's final pass resolves. The copy
// does all that t's code does, so the open run takes in, after the br's
// own entry, copies of the origs entries t's run charges and its inspector
// count. A < copy whose first operand the add emitted last in this block
// and run wrote turns that add into an opAddBrLt instead.
func (l *lowerer) copyLoopTest(line int32, t int) {
	c := l.c
	pc := l.blocks[t].pc
	head, test := c.insts[pc], c.insts[pc+1]
	last := int32(len(c.insts)) - 1
	latch := test.op == opBrLt && last >= l.blocks[l.block].pc && c.sites[last].run == l.run &&
		c.insts[last].op == opAdd && c.insts[last].dst == test.a
	l.account(line, costDefault, true)
	first, copied := c.sites[pc].orig, int32(len(c.origs))
	for o := first; o < first+head.b; o++ {
		l.account(c.origs[o].line, c.origs[o].cost, true)
	}
	c.insts[l.run].c += head.c
	if latch {
		add := &c.insts[last]
		add.op, add.c, add.d, add.e = opAddBrLt, test.c, test.d, test.b
		return
	}
	l.emit(test, copied+c.sites[pc+1].orig-first)
}

// absorb marks x computed by its consumer at position at, which is
// therefore where x reads its operands.
func (l *lowerer) absorb(x *ir.Instr, at int32) {
	l.regs[x.Reg].absorbed = true
	for _, a := range x.Args {
		if d, ok := a.(*ir.Instr); ok && l.hasReg(d) && l.regs[d.Reg].last < at {
			l.regs[d.Reg].last = at
		}
	}
}

// lowerLocal lowers a load or store of promoted local x: nothing when the
// value already sits where it is going, one move otherwise.
func (l *lowerer) lowerLocal(in *ir.Instr, x *regInfo) {
	dst, src := x.slot, x.slot
	if in.Op == ir.OpLoad {
		dst = l.slot(in)
	} else {
		src = l.slot(in.Args[1])
	}
	orig := l.account(in.Line, costMemory, true)
	l.c.insts[l.run].c++
	if dst != src {
		l.emit(inst{op: opMove, dst: dst, a: src}, orig)
	}
}

func (l *lowerer) lowerInstr(in *ir.Instr, at int32) {
	c := l.c
	dst := int32(-1)
	if l.hasReg(in) {
		dst = l.slot(in) // a retargeted instruction writes its local
	}
	arg := func(i int) int32 {
		if i < len(in.Args) {
			return l.slot(in.Args[i])
		}
		return l.constSlot(0)
	}
	light := func(op opcode, cost int32, x inst) {
		x.op = op
		orig := l.account(in.Line, cost, true)
		l.emit(x, orig)
	}

	switch in.Op {
	case ir.OpAlloca:
		// The register keeps the unit's address even when the local's
		// value lives in a slot of its own.
		c.allocas = append(c.allocas, in.Size)
		light(opAlloca, costDefault, inst{dst: int32(in.Reg), a: int32(len(c.allocas) - 1)})

	case ir.OpLoad, ir.OpStore:
		store := in.Op == ir.OpStore
		need := 1
		if store {
			need = 2
		}
		if len(in.Args) != need || (in.Size != 1 && in.Size != 8) || (!store && dst < 0) {
			l.fault(in.Line, "malformed "+in.Op.String())
			return
		}
		x := inst{dst: dst, a: arg(0), c: c.numIC}
		c.numIC++
		if store {
			x.dst = arg(1)
		}
		op := opLoad8
		switch p := l.fusedAddress(in, at); {
		case in.Size == 1:
			op = opLoad1
		case p[3] != nil:
			op = opLoadMMA8
			x.a, x.b, x.d, x.e = l.slot(other(p[0], p[1])), l.slot(p[3].Args[0]), l.slot(p[3].Args[1]), l.slot(other(p[2], p[3]))
		case p[1] != nil:
			op = opLoadMA8
			x.a, x.b, x.d = l.slot(other(p[0], p[1])), l.slot(p[1].Args[0]), l.slot(p[1].Args[1])
		case p[0] != nil:
			op = opLoadA8
			x.a, x.b = l.slot(p[0].Args[0]), l.slot(p[0].Args[1])
		}
		if store {
			op += opStore8 - opLoad8
		}
		light(op, costMemory, x)

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		op, ok := arithOp(in)
		if !ok {
			kind := "int"
			if in.Float {
				kind = "float"
			}
			l.fault(in.Line, kind+" op "+in.Op.String()+" unsupported")
			return
		}
		x := inst{dst: dst, a: arg(0), b: arg(1)}
		if m := l.product(in); m != nil {
			op = opMulAdd
			if in.Float {
				op = opFMulAdd + opcode(in.Op-ir.OpAdd) // opFMulSub for a subtract
			}
			x.a, x.b, x.d = l.slot(m.Args[0]), l.slot(m.Args[1]), l.slot(other(in, m))
		}
		light(op, costDefault, x)

	case ir.OpIToF:
		light(opIToF, costDefault, inst{dst: dst, a: arg(0)})
	case ir.OpFToI:
		light(opFToI, costDefault, inst{dst: dst, a: arg(0)})

	case ir.OpCall:
		callee, ok := l.funcIndex[in.Callee]
		if !ok {
			l.fault(in.Line, "call of a function outside the module")
			return
		}
		// Arguments beyond the callee's parameters were never read.
		vals := in.Args
		if n := len(in.Callee.Params); len(vals) > n {
			vals = vals[:n]
		}
		off, n := l.argList(vals)
		l.emit(inst{op: opCall, dst: dst, a: off, b: n, c: callee}, l.account(in.Line, 0, false))

	case ir.OpIntrinsic:
		l.lowerIntrinsic(in, dst)

	case ir.OpLaunch:
		kernel, ok := l.funcIndex[in.Callee]
		if !ok || len(in.Args) < 2 {
			l.fault(in.Line, "malformed launch")
			return
		}
		off, n := l.argList(in.Args)
		l.emit(inst{op: opLaunch, a: off, b: n, c: kernel}, l.account(in.Line, 0, false))

	case ir.OpRet:
		if len(in.Args) > 0 {
			light(opRet, costDefault, inst{a: arg(0)})
		} else {
			light(opRetVoid, costDefault, inst{})
		}

	case ir.OpBr:
		if len(in.Targets) != 1 || !l.ownBlock(in.Targets[0]) {
			l.fault(in.Line, "malformed br")
			return
		}
		if t := in.Targets[0].Index; l.loopTest(t) {
			l.copyLoopTest(in.Line, t)
		} else {
			light(opBr, costDefault, inst{c: int32(t)})
		}

	case ir.OpCondBr:
		if len(in.Targets) != 2 || len(in.Args) != 1 || !l.ownBlock(in.Targets[0]) || !l.ownBlock(in.Targets[1]) {
			l.fault(in.Line, "malformed condbr")
			return
		}
		x := inst{a: arg(0), c: int32(in.Targets[0].Index), d: int32(in.Targets[1].Index)}
		op := opCondBr
		if cmp := l.absorbable(in.Args[0], in.Block, at, isCompare); cmp != nil {
			op = opBrEq + opcode(cmp.Op-ir.OpEq)
			if cmp.Float {
				op += opBrFEq - opBrEq
			}
			x.a, x.b = l.slot(cmp.Args[0]), l.slot(cmp.Args[1])
		}
		light(op, costDefault, x)

	default:
		l.fault(in.Line, "unknown opcode "+in.Op.String())
	}
}

// ownBlock reports whether t is a block of the function being lowered at
// the index it claims.
func (l *lowerer) ownBlock(t *ir.Block) bool {
	return t != nil && t.Index >= 0 && t.Index < len(l.f.Blocks) && l.f.Blocks[t.Index] == t
}

// arithOp selects the specialised opcode of a binary instruction.
func arithOp(in *ir.Instr) (opcode, bool) {
	if !in.Float {
		return opAdd + opcode(in.Op-ir.OpAdd), true
	}
	switch {
	case in.Op >= ir.OpAdd && in.Op <= ir.OpRem:
		return opFAdd + opcode(in.Op-ir.OpAdd), true
	case in.Op >= ir.OpEq && in.Op <= ir.OpGe:
		return opFEq + opcode(in.Op-ir.OpEq), true
	}
	return 0, false // bitwise ops have no float form
}

func (l *lowerer) lowerIntrinsic(in *ir.Instr, dst int32) {
	row := in.Intrinsic()
	if row == nil {
		l.fault(in.Line, "unknown intrinsic "+in.Name)
		return
	}
	if len(in.Args) < len(row.Params) {
		l.fault(in.Line, "malformed intrinsic "+in.Name)
		return
	}
	switch {
	case row.ID == ir.InTid || row.ID == ir.InNtid:
		op := opTid
		if row.ID == ir.InNtid {
			op = opNtid
		}
		l.emit(inst{op: op, dst: dst}, l.account(in.Line, 1, true))
	case row.Math:
		// No effect but its result, so it executes inside a charge run.
		x := inst{op: opPure, dst: dst, a: l.slot(in.Args[0]), b: l.constSlot(0), c: int32(row.ID)}
		if len(row.Params) > 1 {
			x.b = l.slot(in.Args[1])
		}
		l.emit(x, l.account(in.Line, row.Cost, true))
	default:
		off, n := l.argList(in.Args)
		l.emit(inst{op: opIntrinsic, dst: dst, a: off, b: n, c: int32(row.ID)}, l.account(in.Line, 0, false))
	}
}
