package interp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/faultinject"
	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/prof"
	runtimelib "cgcm/internal/runtime"
)

// The engine table: every lowered opcode, with each kind of operand
// (constant, register, global in CPU space, global in device space), in
// each execution context, against hand-computed value, charged ops and
// fault text. Programs are built directly as IR so a case controls
// exactly which instructions run.

type ctxKind int

const (
	ctxRoot      ctxKind = iota // the function under test is called from main
	ctxKernel                   // ... launched as a 1-thread kernel on the device
	ctxFallback                 // ... launched after the device failed: CPU fallback
	ctxInspector                // ... launched in inspector-executor mode
)

var ctxNames = []string{"root", "kernel", "fallback", "inspector"}

const allCtx = 1<<ctxRoot | 1<<ctxKernel | 1<<ctxFallback | 1<<ctxInspector
const launched = allCtx &^ (1 << ctxRoot)

// The module every case runs in: globals g (8 bytes holding 41), buf (32
// zero bytes) and str ("hi"), the function under test t(x, y), a helper
// h(a, b) = a + b, and a main that calls or launches t. Globals load in
// order from fixed bases, so their addresses are known constants.
const (
	cpuG, cpuBuf = 0x10000, 0x10010
	devG, devBuf = machine.GPUBase, machine.GPUBase + 0x10
)

// tb emits the body of t. Each instruction gets its own source line, its
// position in emission order, so profiles can be checked per instruction.
type tb struct {
	ctx         ctxKind
	mod         *ir.Module
	f           *ir.Func
	b           *ir.Block
	x, y        ir.Value
	g, buf, str *ir.Global
	line        int32
}

func (t *tb) emit(in *ir.Instr) *ir.Instr {
	t.line++
	in.Line = t.line
	return t.b.Append(in)
}
func (t *tb) op(op ir.Op, a, b ir.Value) *ir.Instr {
	return t.emit(&ir.Instr{Op: op, Args: []ir.Value{a, b}})
}
func (t *tb) fop(op ir.Op, a, b ir.Value) *ir.Instr {
	return t.emit(&ir.Instr{Op: op, Float: true, Args: []ir.Value{a, b}})
}
func (t *tb) load(addr ir.Value, size int64) *ir.Instr {
	return t.emit(&ir.Instr{Op: ir.OpLoad, Args: []ir.Value{addr}, Size: size})
}
func (t *tb) store(addr, v ir.Value, size int64) {
	t.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{addr, v}, Size: size})
}
func (t *tb) alloca(size int64) *ir.Instr { return t.emit(&ir.Instr{Op: ir.OpAlloca, Size: size}) }
func (t *tb) intr(name string, args ...ir.Value) *ir.Instr {
	return t.emit(&ir.Instr{Op: ir.OpIntrinsic, Name: name, Args: args})
}
func (t *tb) print(v ir.Value)  { t.intr("print_int", v) }
func (t *tb) printf(v ir.Value) { t.intr("print_float", v) }
func (t *tb) ret()              { t.emit(&ir.Instr{Op: ir.OpRet}) }
func (t *tb) block() *ir.Block  { return t.f.NewBlock("b") }
func (t *tb) br(to *ir.Block)   { t.emit(&ir.Instr{Op: ir.OpBr, Targets: []*ir.Block{to}}) }
func (t *tb) condbr(c ir.Value, yes, no *ir.Block) {
	t.emit(&ir.Instr{Op: ir.OpCondBr, Args: []ir.Value{c}, Targets: []*ir.Block{yes, no}})
}
func (t *tb) ref(g *ir.Global) ir.Value { return &ir.GlobalRef{Global: g} }

// addr is g's address as code in this context sees it.
func (t *tb) addr(g *ir.Global) uint64 {
	cpu, dev := uint64(cpuG), uint64(devG)
	if g == t.buf {
		cpu, dev = cpuBuf, devBuf
	}
	if t.ctx == ctxKernel {
		return dev
	}
	return cpu
}

func ic(v int64) ir.Value   { return ir.IntConst(v) }
func fc(v float64) ir.Value { return ir.FloatConst(v) }

// engineCase is one body of t. build emits it and returns what it
// expects: the output, the op cost of the instructions that execute (not
// counting the one ret that ends t) and — when the body is meant to fail —
// the fault text and how many instructions of t execute up to and
// including the failing one.
type engineCase struct {
	name  string
	ctxs  int // bitmask of contexts the case applies to
	x, y  ir.Value
	build func(t *tb) want
}

type want struct {
	out   string
	ops   int64 // on a fault, when nonzero: what the failing thread was charged
	fault string
	steps int64
	// uses lists opcodes the lowered t must contain; lacks, ones it must not.
	uses, lacks []opcode
}

func engineCases() []engineCase {
	var cases []engineCase
	add := func(name string, ctxs int, x, y ir.Value, build func(t *tb) want) {
		cases = append(cases, engineCase{name, ctxs, x, y, build})
	}

	// Binary arithmetic, with each operand as a register (t's parameter)
	// and as a constant.
	type bin struct {
		op    ir.Op
		float bool
		x, y  ir.Value
		out   string
	}
	i7, i3, f75, f25 := ic(7), ic(3), fc(7.5), fc(2.5)
	bins := []bin{
		{ir.OpAdd, false, i7, i3, "10"}, {ir.OpSub, false, i7, i3, "4"}, {ir.OpMul, false, i7, i3, "21"},
		{ir.OpDiv, false, i7, i3, "2"}, {ir.OpRem, false, i7, i3, "1"}, {ir.OpDiv, false, ic(-7), i3, "-2"},
		{ir.OpAnd, false, i7, i3, "3"}, {ir.OpOr, false, i7, ic(8), "15"}, {ir.OpXor, false, i7, i3, "4"},
		{ir.OpShl, false, i7, i3, "56"}, {ir.OpShr, false, ic(-8), ic(1), "-4"}, {ir.OpShl, false, ic(1), ic(65), "2"},
		{ir.OpEq, false, i7, i3, "0"}, {ir.OpNe, false, i7, i3, "1"}, {ir.OpLt, false, ic(-1), i3, "1"},
		{ir.OpLe, false, i7, i7, "1"}, {ir.OpGt, false, i7, i3, "1"}, {ir.OpGe, false, i3, i7, "0"},
		{ir.OpAdd, true, f75, f25, "10"}, {ir.OpSub, true, f75, f25, "5"}, {ir.OpMul, true, f75, f25, "18.75"},
		{ir.OpDiv, true, f75, f25, "3"}, {ir.OpRem, true, f75, fc(2), "1.5"}, {ir.OpDiv, true, fc(1), fc(0), "+Inf"},
		{ir.OpEq, true, f75, f25, "0"}, {ir.OpNe, true, f75, f25, "1"}, {ir.OpLt, true, f25, f75, "1"},
		{ir.OpLe, true, f75, f75, "1"}, {ir.OpGt, true, f25, f75, "0"}, {ir.OpGe, true, f75, f25, "1"},
	}
	for _, b := range bins {
		b := b
		for _, kinds := range []string{"rr", "cc", "rc", "cr"} {
			kinds := kinds
			name := fmt.Sprintf("%s/%s", b.op, kinds)
			if b.float {
				name = "f" + name
			}
			add(name+"="+b.out, allCtx, b.x, b.y, func(t *tb) want {
				x, y := t.x, t.y
				if kinds[0] == 'c' {
					x = b.x
				}
				if kinds[1] == 'c' {
					y = b.y
				}
				v := t.emit(&ir.Instr{Op: b.op, Float: b.float, Args: []ir.Value{x, y}})
				if b.float && b.op < ir.OpEq {
					t.printf(v)
				} else {
					t.print(v)
				}
				return want{out: b.out + "\n", ops: 1 + 4}
			})
		}
	}
	add("itof", allCtx, i7, nil, func(t *tb) want {
		t.printf(t.emit(&ir.Instr{Op: ir.OpIToF, Float: true, Args: []ir.Value{t.x}}))
		t.printf(t.emit(&ir.Instr{Op: ir.OpIToF, Float: true, Args: []ir.Value{ic(-2)}}))
		return want{out: "7\n-2\n", ops: 2 * (1 + 4)}
	})
	add("ftoi", allCtx, fc(7.9), nil, func(t *tb) want {
		t.print(t.emit(&ir.Instr{Op: ir.OpFToI, Args: []ir.Value{t.x}}))
		t.print(t.emit(&ir.Instr{Op: ir.OpFToI, Args: []ir.Value{fc(-7.9)}}))
		return want{out: "7\n-7\n", ops: 2 * (1 + 4)}
	})

	// Globals as operands: the address of the global in the space the
	// context executes against.
	add("global/arith", allCtx, i7, i3, func(t *tb) want {
		t.print(t.op(ir.OpAdd, t.ref(t.g), ic(8)))
		t.print(t.op(ir.OpSub, t.ref(t.buf), t.ref(t.g)))
		t.print(t.op(ir.OpEq, t.ref(t.g), t.ref(t.g)))
		return want{out: fmt.Sprintf("%d\n16\n1\n", t.addr(t.g)+8), ops: 3 * (1 + 4)}
	})
	add("global/load-store", allCtx, i7, i3, func(t *tb) want {
		t.print(t.load(t.ref(t.g), 8))
		t.print(t.load(t.ref(t.g), 1))
		t.store(t.ref(t.buf), t.x, 8)
		t.store(t.ref(t.buf), ic(0x1FF), 1) // low byte only
		t.print(t.load(t.ref(t.buf), 8))
		return want{out: "41\n41\n255\n", ops: 5*3 + 3*4,
			uses: []opcode{opLoad8, opLoad1, opStore8, opStore1}}
	})
	add("register/load-store", allCtx, ic(24), ic(-5), func(t *tb) want {
		a := t.op(ir.OpAdd, t.ref(t.buf), t.x) // two uses: stays an instruction
		t.store(a, t.y, 8)
		t.print(t.load(a, 8))
		t.print(t.load(a, 1))
		return want{out: "-5\n251\n", ops: 1 + 3*3 + 2*4, uses: []opcode{opAdd}, lacks: []opcode{opLoadA8, opStoreA8}}
	})
	add("const/load", 1<<ctxRoot|1<<ctxFallback|1<<ctxInspector, nil, nil, func(t *tb) want {
		t.print(t.load(ic(cpuG), 8))
		return want{out: "41\n", ops: 3 + 4}
	})
	add("const/load-device", 1<<ctxKernel, nil, nil, func(t *tb) want {
		t.print(t.load(ic(int64(devG)), 8))
		return want{out: "41\n", ops: 3 + 4}
	})

	// Fused address arithmetic, each against the spelling fusion refuses:
	// the same instructions with the address used a second time.
	for _, fused := range []bool{true, false} {
		fused := fused
		spelling := map[bool]string{true: "fused", false: "unfused"}[fused]
		again := func(t *tb, a ir.Value) int64 { // a second use of the address
			if fused {
				return 0
			}
			t.op(ir.OpXor, a, a)
			return 1
		}
		add("add+load/"+spelling, allCtx, ic(16), ic(99), func(t *tb) want {
			t.store(t.op(ir.OpAdd, t.ref(t.buf), t.x), t.y, 8)
			a := t.op(ir.OpAdd, t.x, t.ref(t.buf))
			t.print(t.load(a, 8))
			w := want{out: "99\n", ops: 2*(1+3) + 4 + again(t, a), uses: []opcode{opStoreA8, opLoadA8}, lacks: []opcode{opAdd}}
			if !fused {
				w.uses, w.lacks = []opcode{opStoreA8, opLoad8, opAdd}, []opcode{opLoadA8}
			}
			return w
		})
		add("mul+add+load/"+spelling, allCtx, ic(2), ic(77), func(t *tb) want {
			t.store(t.op(ir.OpAdd, t.op(ir.OpMul, t.x, ic(8)), t.ref(t.buf)), t.y, 8)
			a := t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, ic(8), t.x))
			t.print(t.load(a, 8))
			w := want{out: "77\n", ops: 2*(1+1+3) + 4 + again(t, a), uses: []opcode{opStoreMA8, opLoadMA8}, lacks: []opcode{opAdd, opMul}}
			if !fused { // the address add, read twice, computes its multiply
				w.uses, w.lacks = []opcode{opStoreMA8, opLoad8, opMulAdd}, []opcode{opLoadMA8, opAdd, opMul}
			}
			return w
		})
		add("cmp+condbr/"+spelling, allCtx, i3, i7, func(t *tb) want {
			c := t.op(ir.OpLt, t.x, t.y)
			extra := int64(0)
			if !fused {
				t.print(c)
				extra = 4
			}
			yes, no := t.block(), t.block()
			t.condbr(c, yes, no)
			t.b = yes
			t.print(ic(1))
			t.ret()
			t.b = no
			t.print(ic(0))
			w := want{out: "1\n", ops: 1 + 1 + 4 + extra, uses: []opcode{opBrLt}, lacks: []opcode{opLt, opCondBr}}
			if !fused {
				w.out, w.uses, w.lacks = "1\n1\n", []opcode{opLt, opCondBr}, []opcode{opBrLt}
			}
			return w
		})
	}
	// A store whose address was computed before other work still fuses:
	// the add is absorbed across the instructions between.
	add("add...store", allCtx, ic(8), ic(5), func(t *tb) want {
		a := t.op(ir.OpAdd, t.ref(t.buf), t.x)
		v := t.op(ir.OpMul, t.y, t.y)
		t.store(a, v, 8)
		t.print(t.load(t.op(ir.OpAdd, t.ref(t.buf), ic(8)), 8))
		return want{out: "25\n", ops: 1 + 1 + 3 + 1 + 3 + 4, uses: []opcode{opStoreA8, opLoadA8, opMul}, lacks: []opcode{opAdd}}
	})
	// One-byte accesses do not fuse.
	add("add+load1", allCtx, ic(3), nil, func(t *tb) want {
		t.print(t.load(t.op(ir.OpAdd, t.ref(t.g), t.x), 1))
		return want{out: "0\n", ops: 1 + 3 + 4, uses: []opcode{opAdd, opLoad1}}
	})

	// Every compare fused into its branch, both ways.
	for _, float := range []bool{false, true} {
		for op := ir.OpEq; op <= ir.OpGe; op++ {
			for _, swap := range []bool{false, true} {
				op, float, swap := op, float, swap
				x, y, lo, hi := ic(3), ic(7), int64(3), int64(7)
				if float {
					x, y = fc(3), fc(7)
				}
				if swap {
					x, y, lo, hi = y, x, hi, lo
				}
				taken := map[ir.Op]bool{ir.OpEq: lo == hi, ir.OpNe: lo != hi, ir.OpLt: lo < hi, ir.OpLe: lo <= hi, ir.OpGt: lo > hi, ir.OpGe: lo >= hi}[op]
				add(fmt.Sprintf("br-%s/float=%v/swap=%v", op, float, swap), allCtx, x, y, func(t *tb) want {
					c := t.emit(&ir.Instr{Op: op, Float: float, Args: []ir.Value{t.x, t.y}})
					yes, no := t.block(), t.block()
					t.condbr(c, yes, no)
					t.b = yes
					t.print(ic(1))
					t.ret()
					t.b = no
					t.print(ic(0))
					fusedOp := opBrEq + opcode(op-ir.OpEq)
					if float {
						fusedOp += opBrFEq - opBrEq
					}
					out := "0\n"
					if taken {
						out = "1\n"
					}
					return want{out: out, ops: 1 + 1 + 4, uses: []opcode{fusedOp}}
				})
			}
		}
	}
	add("br+condbr-on-register", allCtx, ic(0), ic(5), func(t *tb) want {
		next, yes, no := t.block(), t.block(), t.block()
		t.br(next)
		t.b = next
		t.condbr(t.x, yes, no)
		t.b = yes
		t.print(ic(1))
		t.ret()
		t.b = no
		t.condbr(t.y, yes, yes)
		// next is the entry block's layout successor with no other way in,
		// so the br emits nothing and next continues the entry's run.
		return want{out: "1\n", ops: 1 + 1 + 1 + 4, uses: []opcode{opCondBr}, lacks: []opcode{opBr}}
	})

	// The lowering's loop forms — a br merged into its target's run, a
	// loop test copied into the latch, the latch's add joined to that
	// copy, a row-major access fused, a multiply computed by the add or
	// subtract it feeds — each against a spelling that defeats it with a
	// use in a block that never runs. The two execute the same
	// instructions, so TestLoweredFormsKeepTheCounts holds them to the same
	// output, fault, steps, charged ops and inspector count.
	for _, fused := range []bool{true, false} {
		fused := fused
		spelling := map[bool]string{true: "fused", false: "unfused"}[fused]
		// dead, in the unfused spelling, appends a block nothing reaches
		// that reads vals and branches to to, or returns when to is nil.
		dead := func(t *tb, to *ir.Block, vals ...ir.Value) {
			if fused {
				return
			}
			t.b = t.block()
			for _, v := range vals {
				t.op(ir.OpXor, v, v)
			}
			if to != nil {
				t.br(to)
			} else {
				t.ret()
			}
		}
		add("lower/loop/test-copied/"+spelling, allCtx, ic(3), ic(2), func(t *tb) want {
			// for (i = 0; i < x*y; i++) s += i; the header reads i, which
			// the latch writes, and x*y, which the entry block computes.
			n := t.op(ir.OpMul, t.x, t.y)
			i, s := t.alloca(8), t.alloca(8)
			t.store(i, ic(0), 8)
			t.store(s, ic(0), 8)
			head, body, exit := t.block(), t.block(), t.block()
			t.br(head)
			t.b = head
			c := t.op(ir.OpLt, t.load(i, 8), n)
			t.condbr(c, body, exit)
			t.b = body
			iv := t.load(i, 8)
			t.store(s, t.op(ir.OpAdd, t.load(s, 8), iv), 8)
			t.store(i, t.op(ir.OpAdd, iv, ic(1)), 8)
			t.br(head)
			t.b = exit
			t.print(t.load(s, 8))
			t.ret()
			dead(t, nil, c) // the compare read twice: the header is more than a test
			w := want{out: "15\n", steps: 6 + 3*7 + 7*6 + 2, ops: (1 + 2 + 2 + 3 + 3 + 1) + 5*7 + 15*6 + (3 + 4),
				uses: []opcode{opBrLt, opAddBrLt}}
			if !fused {
				w.uses, w.lacks = []opcode{opLt, opCondBr}, []opcode{opBrLt}
			}
			return w
		})
		add("lower/fallthrough-fault/"+spelling, allCtx, i7, ic(0), func(t *tb) want {
			t.op(ir.OpAdd, t.x, t.x)
			next := t.block()
			t.br(next)
			t.b = next
			t.op(ir.OpAdd, t.x, t.x)
			t.op(ir.OpDiv, t.x, t.y)
			t.op(ir.OpAdd, t.x, t.x) // not reached
			t.ret()
			dead(t, next) // a second way into next
			w := want{fault: "integer division by zero", steps: 4, ops: 1 + 1 + 1, lacks: []opcode{opBr}}
			if !fused {
				w.uses, w.lacks = []opcode{opBr}, nil
			}
			return w
		})
		add("lower/row-major/"+spelling, allCtx, ic(1), ic(1), func(t *tb) want {
			// buf[x*2 + y] = 99, read back as buf[y + 2*x].
			st := t.op(ir.OpAdd, t.op(ir.OpMul, t.x, ic(2)), t.y)
			t.store(t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, st, ic(8))), ic(99), 8)
			ld := t.op(ir.OpAdd, t.y, t.op(ir.OpMul, ic(2), t.x))
			t.print(t.load(t.op(ir.OpAdd, t.op(ir.OpMul, ic(8), ld), t.ref(t.buf)), 8))
			t.ret()
			dead(t, nil, st, ld) // each index read twice
			w := want{out: "99\n", steps: 11, ops: 2*(1+1+1+1+3) + 4, uses: []opcode{opStoreMMA8, opLoadMMA8}, lacks: []opcode{opMul, opAdd}}
			if !fused { // each index, read twice, computes its multiply
				w.uses, w.lacks = []opcode{opStoreMA8, opLoadMA8, opMulAdd, opMulAdd}, []opcode{opStoreMMA8, opLoadMMA8, opAdd, opMul}
			}
			return w
		})
		add("lower/row-major-wrapping/"+spelling, allCtx, ic(-1), ic(1<<61), func(t *tb) want {
			// Negative: (buf+32)[x*3 - 1] with x = -1 is buf[0]. Wrapping:
			// (y*4 + 1)*8 with y = 2^61 is 8 modulo 2^64.
			end := t.op(ir.OpAdd, t.ref(t.buf), ic(32))
			neg := t.op(ir.OpAdd, t.op(ir.OpMul, t.x, ic(3)), ic(-1))
			t.store(t.op(ir.OpAdd, end, t.op(ir.OpMul, neg, ic(8))), ic(11), 8)
			wrap := t.op(ir.OpAdd, t.op(ir.OpMul, t.y, ic(4)), ic(1))
			t.store(t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, wrap, ic(8))), ic(22), 8)
			t.print(t.load(t.ref(t.buf), 8))
			t.print(t.load(t.op(ir.OpAdd, t.ref(t.buf), ic(8)), 8))
			t.ret()
			dead(t, nil, neg, wrap)
			w := want{out: "11\n22\n", steps: 1 + 5 + 5 + 2 + 3, ops: 1 + 7 + 7 + (3 + 4) + (1 + 3 + 4),
				uses: []opcode{opStoreMMA8, opStoreMMA8}, lacks: []opcode{opMul}}
			if !fused {
				w.uses, w.lacks = []opcode{opStoreMA8, opStoreMA8}, []opcode{opStoreMMA8}
			}
			return w
		})
		add("lower/row-major-fault/"+spelling, allCtx, i7, ic(0), func(t *tb) want {
			t.op(ir.OpAdd, t.x, t.x)
			idx := t.op(ir.OpAdd, t.op(ir.OpMul, t.x, ic(1000)), t.y)
			t.load(t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, idx, ic(8))), 8) // far past buf
			t.op(ir.OpAdd, t.x, t.x)                                            // not reached
			t.ret()
			dead(t, nil, idx)
			w := want{fault: "unmapped address", steps: 6, ops: 1 + 4, uses: []opcode{opLoadMMA8}}
			if !fused {
				w.uses = []opcode{opLoadMA8}
			}
			return w
		})
		add("lower/latch/"+spelling, allCtx, ic(1), ic(8), func(t *tb) want {
			// for (i = x; i < y; i += 2) s += i;
			i, s := t.alloca(8), t.alloca(8)
			t.store(i, t.x, 8)
			t.store(s, ic(0), 8)
			head, body, exit := t.block(), t.block(), t.block()
			t.br(head)
			t.b = head
			t.condbr(t.op(ir.OpLt, t.load(i, 8), t.y), body, exit)
			t.b = body
			iv := t.load(i, 8)
			t.store(s, t.op(ir.OpAdd, t.load(s, 8), iv), 8)
			next := t.op(ir.OpAdd, iv, ic(2))
			t.store(i, next, 8)
			t.br(head)
			t.b = exit
			t.print(t.load(s, 8))
			t.ret()
			dead(t, nil, next) // the increment read twice: a move stores it
			w := want{out: "16\n", steps: 5 + 3*5 + 7*4 + 2, ops: (2 + 2 + 3 + 3 + 1) + 5*5 + 15*4 + (3 + 4),
				uses: []opcode{opBrLt, opAddBrLt}}
			if !fused {
				w.uses, w.lacks = []opcode{opBrLt, opBrLt}, []opcode{opAddBrLt}
			}
			return w
		})
		// mac emits s = first; print s; s = then(s); print s, with the
		// products the two read computed before it: a multiply need not sit
		// next to the add or subtract it feeds, which writes s itself. The
		// unfused spelling reads the products named in defeat again.
		mac := func(t *tb, first func() ir.Value, then func(s ir.Value) ir.Value, print func(ir.Value), defeat ...ir.Value) {
			s := t.alloca(8)
			t.store(s, first(), 8)
			print(t.load(s, 8))
			t.store(s, then(t.load(s, 8)), 8)
			print(t.load(s, 8))
			t.ret()
			dead(t, nil, defeat...)
		}
		// mul, mul, alloca, op, store, load, print, load, op, store, load, print
		const macSteps, macOps = 12, 1 + 1 + 2 + (1 + 3 + 3 + 4) + (3 + 1 + 3 + 3 + 4)
		add("lower/muladd/"+spelling, allCtx, ic(1<<62+3), ic(4), func(t *tb) want {
			// x*y wraps to 12, then 7 + 4*-2.
			p, q := t.op(ir.OpMul, t.x, t.y), t.op(ir.OpMul, t.y, ic(-2))
			mac(t, func() ir.Value { return t.op(ir.OpAdd, p, ic(-5)) },
				func(s ir.Value) ir.Value { return t.op(ir.OpAdd, s, q) }, t.print, p, q)
			w := want{out: "7\n-1\n", steps: macSteps, ops: macOps, uses: []opcode{opMulAdd, opMulAdd}, lacks: []opcode{opMul, opAdd}}
			if !fused {
				w.uses, w.lacks = []opcode{opMul, opMul, opAdd, opAdd}, []opcode{opMulAdd}
			}
			return w
		})
		add("lower/fmuladd/"+spelling, allCtx, fc(1.5), fc(2.5), func(t *tb) want {
			p, q := t.fop(ir.OpMul, t.x, t.y), t.fop(ir.OpMul, t.x, t.x)
			mac(t, func() ir.Value { return t.fop(ir.OpAdd, p, fc(0.25)) },
				func(s ir.Value) ir.Value { return t.fop(ir.OpAdd, q, s) }, t.printf, p, q)
			w := want{out: "4\n6.25\n", steps: macSteps, ops: macOps, uses: []opcode{opFMulAdd, opFMulAdd}, lacks: []opcode{opFMul, opFAdd}}
			if !fused {
				w.uses, w.lacks = []opcode{opFMul, opFMul, opFAdd, opFAdd}, []opcode{opFMulAdd}
			}
			return w
		})
		add("lower/fmulsub/"+spelling, allCtx, fc(1.5), fc(2.5), func(t *tb) want {
			// Only a subtrahend fuses: q - s stays two instructions.
			p, q := t.fop(ir.OpMul, t.x, t.y), t.fop(ir.OpMul, t.x, t.x)
			mac(t, func() ir.Value { return t.fop(ir.OpSub, fc(10), p) },
				func(s ir.Value) ir.Value { return t.fop(ir.OpSub, q, s) }, t.printf, p)
			w := want{out: "6.25\n-4\n", steps: macSteps, ops: macOps, uses: []opcode{opFMulSub, opFMul, opFSub}}
			if !fused {
				w.uses, w.lacks = []opcode{opFMul, opFMul, opFSub, opFSub}, []opcode{opFMulSub}
			}
			return w
		})
		add("lower/fmul-rounding/"+spelling, allCtx, fc(1+0x1p-30), fc(1-0x1p-30), func(t *tb) want {
			// x*y is 1 - 2^-60, which rounds to 1 before the add and the
			// subtract: rounding once, as a fused multiply-add does, would
			// print -2^-60 and then 2^-60.
			p, q := t.fop(ir.OpMul, t.x, t.y), t.fop(ir.OpMul, t.x, t.y)
			mac(t, func() ir.Value { return t.fop(ir.OpAdd, p, fc(-1)) },
				func(s ir.Value) ir.Value { return t.fop(ir.OpSub, t.fop(ir.OpAdd, s, fc(1)), q) }, t.printf, p, q)
			w := want{out: "0\n0\n", steps: macSteps + 1, ops: macOps + 1, uses: []opcode{opFMulAdd, opFMulSub}}
			if !fused {
				w.uses, w.lacks = []opcode{opFMul, opFMul, opFSub}, []opcode{opFMulAdd, opFMulSub}
			}
			return w
		})
	}
	add("lower/loop/continue-not-merged", allCtx, ic(5), nil, func(t *tb) want {
		// for (i = 0; i < x; i++) { if (i & 1) continue; s += i; }
		i, s := t.alloca(8), t.alloca(8)
		t.store(i, ic(0), 8)
		t.store(s, ic(0), 8)
		head, body, work, latch, exit := t.block(), t.block(), t.block(), t.block(), t.block()
		t.br(head)
		t.b = head
		t.condbr(t.op(ir.OpLt, t.load(i, 8), t.x), body, exit)
		t.b = body
		v := t.load(i, 8)
		t.store(i, t.op(ir.OpAdd, v, ic(1)), 8)
		t.condbr(t.op(ir.OpAnd, v, ic(1)), latch, work)
		t.b = work
		t.store(s, t.op(ir.OpAdd, t.load(s, 8), v), 8)
		t.br(latch) // the latch's second way in: the br stays
		t.b = latch
		t.br(head)
		t.b = exit
		t.print(t.load(s, 8))
		return want{out: "6\n", steps: 5 + 3*6 + 5*5 + 4*3 + 5 + 2, ops: 11 + 5*6 + 9*5 + 8*3 + 5 + 7,
			uses: []opcode{opBr, opBrLt, opBrLt}}
	})
	add("lower/row-major-scale-16", allCtx, ic(0), ic(1), func(t *tb) want {
		idx := func() ir.Value { return t.op(ir.OpAdd, t.op(ir.OpMul, t.x, ic(2)), t.y) }
		t.store(t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, idx(), ic(16))), ic(5), 8)
		t.print(t.load(t.op(ir.OpAdd, t.ref(t.buf), t.op(ir.OpMul, idx(), ic(16))), 8))
		return want{out: "5\n", steps: 11, ops: 2*(1+1+1+1+3) + 4,
			uses: []opcode{opStoreMA8, opLoadMA8, opMulAdd, opMulAdd}, lacks: []opcode{opStoreMMA8, opLoadMMA8, opAdd, opMul}}
	})

	// Allocas: a unit per frame, created (cost 2) on first execution and
	// reused (cost 1) when a loop comes round again; zeroed; bounds kept.
	// An 8-byte one used only as a whole lives in a frame slot: its loads
	// and stores are moves or nothing, at memory cost.
	add("alloca/slot", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.print(t.load(s, 8)) // fresh memory reads zero
		t.store(s, t.x, 8)
		t.print(t.load(s, 8))
		c := t.alloca(1)
		t.store(c, ic(0x141), 1)
		t.print(t.load(c, 1))
		return want{out: "0\n7\n65\n", ops: 2*2 + 5*3 + 3*4,
			uses: []opcode{opAlloca, opMove, opLoad1, opStore1}, lacks: []opcode{opLoad8, opStore8}}
	})
	add("alloca/loop-reuse", allCtx, i3, nil, func(t *tb) want {
		// i = x; do { int v; v += i; i--; } while (i != 0); print v  -> 3+2+1
		i := t.alloca(8)
		t.store(i, t.x, 8)
		loop, done := t.block(), t.block()
		t.br(loop)
		t.b = loop
		v := t.alloca(8)
		iv := t.load(i, 8)
		t.store(v, t.op(ir.OpAdd, t.load(v, 8), iv), 8)
		left := t.op(ir.OpSub, iv, ic(1))
		t.store(i, left, 8)
		t.condbr(t.op(ir.OpNe, left, ic(0)), loop, done)
		t.b = done
		t.print(t.load(v, 8))
		body := int64(1 + 3 + 3 + 1 + 3 + 1 + 3 + 1 + 1)
		return want{out: "6\n", ops: 2 + 3 + 1 + 3*body + 1 + 3 + 4}
	})
	add("alloca/array", allCtx, ic(16), ic(9), func(t *tb) want {
		a := t.alloca(24)
		t.store(t.op(ir.OpAdd, a, t.x), t.y, 8)
		t.print(t.load(t.op(ir.OpAdd, a, ic(16)), 8))
		t.print(t.load(a, 8))
		return want{out: "9\n0\n", ops: 2 + 2*(1+3) + 3 + 2*4}
	})
	add("alloca/past-end", allCtx, ic(16), nil, func(t *tb) want {
		a := t.alloca(16)
		t.load(t.op(ir.OpAdd, a, t.x), 8)
		return want{fault: "unmapped address", steps: 3}
	})
	add("alloca/crosses-end", allCtx, ic(12), nil, func(t *tb) want {
		a := t.alloca(16)
		t.load(t.op(ir.OpAdd, a, t.x), 8)
		name := map[bool]string{true: `"alloca t"`, false: `"kalloca t"`}[t.ctx == ctxRoot]
		return want{fault: "access crosses end of allocation unit " + name, steps: 3}
	})

	// Promoted locals: where a load may not be forwarded or a store
	// retargeted, the access is a move, and the old value is what reads.
	add("promote/write-after-load", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		a := t.load(s, 8)
		t.store(s, ic(5), 8)
		t.print(a)
		t.print(t.load(s, 8))
		return want{out: "7\n5\n", ops: 2 + 4*3 + 2*4, uses: []opcode{opMove}, lacks: []opcode{opLoad8, opStore8}}
	})
	add("promote/write-before-fused-read", allCtx, ic(16), nil, func(t *tb) want {
		t.store(t.op(ir.OpAdd, t.ref(t.buf), ic(16)), ic(99), 8)
		s := t.alloca(8)
		t.store(s, t.x, 8)
		a := t.load(s, 8)
		addr := t.op(ir.OpAdd, t.ref(t.buf), a) // absorbed: reads a at the load below
		t.store(s, ic(0), 8)
		t.print(t.load(addr, 8))
		return want{out: "99\n", ops: (1 + 3) + 2 + 3*3 + (1 + 3) + 4, uses: []opcode{opLoadA8, opMove}, lacks: []opcode{opAdd}}
	})
	add("promote/read-in-another-block", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		a := t.load(s, 8)
		next := t.block()
		t.br(next)
		t.b = next
		t.store(s, ic(5), 8)
		t.print(a)
		return want{out: "7\n", ops: 2 + 3*3 + 1 + 4, uses: []opcode{opMove}}
	})
	add("promote/read-before-store", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		d := t.op(ir.OpAdd, t.x, ic(1))
		b := t.load(s, 8) // between d and its store: d may not write s
		t.store(s, d, 8)
		t.print(b)
		t.print(t.load(s, 8))
		return want{out: "7\n8\n", ops: 2 + 3 + 1 + 3*3 + 2*4, uses: []opcode{opAdd, opMove}}
	})
	add("promote/retargeted-write-before-read", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		a := t.load(s, 8)
		d := t.op(ir.OpAdd, t.x, ic(1)) // writes s here, not at its store
		t.print(a)
		t.store(s, d, 8)
		t.print(t.load(s, 8))
		return want{out: "7\n8\n", ops: 2 + 3 + 3 + 1 + 4 + 3 + 3 + 4, uses: []opcode{opAdd, opMove}}
	})
	add("promote/x=x+1", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		t.store(s, t.op(ir.OpAdd, t.load(s, 8), ic(1)), 8) // one add, writing s
		t.print(t.load(s, 8))
		return want{out: "8\n", ops: 2 + 3 + (3 + 1 + 3) + 3 + 4, uses: []opcode{opAdd}, lacks: []opcode{opLoad8, opStore8}}
	})
	add("promote/escapes-to-arithmetic", allCtx, i7, nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		t.print(t.load(t.op(ir.OpAdd, s, ic(0)), 8))
		return want{out: "7\n", ops: 2 + 3 + (1 + 3) + 4, uses: []opcode{opStore8, opLoadA8}, lacks: []opcode{opMove}}
	})
	add("promote/escapes-to-intrinsic", allCtx, ic(0x6968), nil, func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8) // "hi"
		t.print(t.intr("strlen", s))
		t.print(t.load(s, 8))
		return want{out: "2\n26984\n", ops: 2 + 3 + (2 + 2) + 4 + 3 + 4, uses: []opcode{opStore8, opLoad8}, lacks: []opcode{opMove}}
	})
	// A fault part-way through a run of elided and moved accesses gives
	// back exactly the tail: the retargeted div never writes s.
	add("promote/fault-mid-run", allCtx, i7, ic(0), func(t *tb) want {
		s := t.alloca(8)
		t.store(s, t.x, 8)
		t.store(s, t.op(ir.OpAdd, t.load(s, 8), ic(1)), 8)
		t.store(s, t.op(ir.OpDiv, t.x, t.y), 8)
		t.print(t.load(s, 8))
		return want{fault: "integer division by zero", steps: 6, ops: 2 + 3 + 3 + 1 + 3} // the div's own cost goes back too
	})

	// Pure builtins execute inside a run at their static cost.
	pures := []struct {
		name  string
		args  []ir.Value
		out   string
		cost  int64
		float bool
	}{
		{"sqrt", []ir.Value{fc(16)}, "4", 6, true}, {"fabs", []ir.Value{fc(-2)}, "2", 1, true},
		{"exp", []ir.Value{fc(0)}, "1", 10, true}, {"log", []ir.Value{fc(1)}, "0", 10, true},
		{"pow", []ir.Value{fc(2), fc(10)}, "1024", 14, true}, {"sin", []ir.Value{fc(0)}, "0", 10, true},
		{"cos", []ir.Value{fc(0)}, "1", 10, true}, {"floor", []ir.Value{fc(2.5)}, "2", 1, true},
		{"ceil", []ir.Value{fc(2.5)}, "3", 1, true}, {"iabs", []ir.Value{ic(-5)}, "5", 1, false},
		{"imin", []ir.Value{ic(7), ic(-3)}, "-3", 1, false}, {"imax", []ir.Value{ic(7), ic(-3)}, "7", 1, false},
		{"fmin", []ir.Value{fc(7.5), fc(2.5)}, "2.5", 1, true}, {"fmax", []ir.Value{fc(7.5), fc(2.5)}, "7.5", 1, true},
	}
	for _, p := range pures {
		p := p
		add("pure/"+p.name, allCtx, p.args[0], p.args[len(p.args)-1], func(t *tb) want {
			regs := []ir.Value{t.x, t.y}[:len(p.args)]
			for _, args := range [][]ir.Value{p.args, regs} {
				if v := t.intr(p.name, args...); p.float {
					t.printf(v)
				} else {
					t.print(v)
				}
			}
			return want{out: p.out + "\n" + p.out + "\n", ops: 2 * (p.cost + 4), uses: []opcode{opPure}}
		})
	}
	add("tid-ntid", launched, nil, nil, func(t *tb) want {
		t.print(t.intr("tid"))
		t.print(t.intr("ntid"))
		return want{out: "0\n1\n", ops: 2 * (1 + 4), uses: []opcode{opTid, opNtid}}
	})
	add("tid-outside-kernel", 1<<ctxRoot, nil, nil, func(t *tb) want {
		t.op(ir.OpAdd, ic(1), ic(2))
		t.intr("tid")
		return want{fault: "tid() outside kernel", steps: 2}
	})

	// Self-charging instructions.
	add("call", allCtx, i7, i3, func(t *tb) want {
		h := t.mod.Func("h")
		t.print(t.emit(&ir.Instr{Op: ir.OpCall, Callee: h, Args: []ir.Value{t.x, ic(5)}}))
		t.print(t.emit(&ir.Instr{Op: ir.OpCall, Callee: h, Args: []ir.Value{t.ref(t.g), t.y}}))
		return want{out: fmt.Sprintf("12\n%d\n", t.addr(t.g)+3), ops: 2 * (5 + 1 + 1 + 4), uses: []opcode{opCall}}
	})
	add("strlen-print_str", allCtx&^(1<<ctxKernel), nil, nil, func(t *tb) want { // str is not mapped to the device
		t.print(t.intr("strlen", t.ref(t.str)))
		t.intr("print_str", t.ref(t.str))
		return want{out: "2\nhi\n", ops: (2 + 2) + 4 + 4, uses: []opcode{opIntrinsic}}
	})
	add("rng", allCtx, ic(12345), nil, func(t *tb) want {
		t.intr("srand", t.x)
		t.print(t.intr("rand_int", ic(1)))
		t.print(t.op(ir.OpLt, t.intr("rand_float"), ic(0))) // [0,1): sign bit clear
		return want{out: "0\n0\n", ops: 1 + 4 + 4 + 4 + 1 + 4}
	})
	add("heap", 1<<ctxRoot, ic(24), nil, func(t *tb) want {
		p := t.intr("malloc", t.x)
		t.store(t.op(ir.OpAdd, p, ic(16)), ic(5), 8)
		q := t.intr("realloc", p, ic(64))
		t.print(t.load(t.op(ir.OpAdd, q, ic(16)), 8))
		t.intr("free", q)
		z := t.intr("calloc", ic(2), ic(8))
		t.print(t.load(z, 8))
		t.print(t.intr("malloc", ic(-1))) // NULL
		return want{out: "5\n0\n0\n", ops: 8 + (1 + 3) + 8 + (1 + 3) + 4 + 8 + 8 + 3 + 4 + 8 + 4}
	})
	add("cuda", 1<<ctxRoot, nil, nil, func(t *tb) want {
		d := t.intr("cuda_malloc", ic(8))
		t.intr("cuda_memcpy_h2d", d, t.ref(t.g), ic(8))
		t.intr("cuda_memcpy_d2h", t.ref(t.buf), d, ic(8))
		t.intr("cuda_free", d)
		t.print(t.load(t.ref(t.buf), 8))
		return want{out: "41\n", ops: 3 + 4}
	})
	add("runtime-library", 1<<ctxRoot, nil, nil, func(t *tb) want {
		d := t.intr("cgcm.map", t.ref(t.buf))
		t.print(t.op(ir.OpEq, d, ic(int64(devBuf))))
		t.intr("cgcm.unmap", t.ref(t.buf))
		t.intr("cgcm.release", t.ref(t.buf))
		return want{out: "1\n", ops: 1 + 4 + 3*50} // the runtime charges 50 ops per library call
	})

	// Faults: the text, and that exactly the instructions up to and
	// including the failing one were counted as steps.
	for _, kinds := range []string{"r", "c"} {
		kinds := kinds
		for _, f := range []struct {
			op   ir.Op
			text string
		}{{ir.OpDiv, "integer division by zero"}, {ir.OpRem, "integer remainder by zero"}} {
			f := f
			add(fmt.Sprintf("fault/%s-by-zero/%s", f.op, kinds), allCtx, i7, ic(0), func(t *tb) want {
				y := t.y
				if kinds == "c" {
					y = ic(0)
				}
				t.op(ir.OpAdd, t.x, t.x)
				t.op(f.op, t.x, y)
				t.op(ir.OpAdd, t.x, t.x) // not reached
				return want{fault: f.text, steps: 2}
			})
		}
	}
	add("fault/null", allCtx, ic(0), nil, func(t *tb) want {
		t.print(ic(1))
		t.op(ir.OpAdd, t.x, t.x)
		t.load(t.x, 8)
		text := "unmapped address"
		if t.ctx == ctxKernel {
			text = "GPU kernel read of CPU address 0x0"
		}
		return want{out: "1\n", fault: text, steps: 3}
	})
	add("fault/crosses-end", allCtx, nil, nil, func(t *tb) want {
		t.load(t.op(ir.OpAdd, t.ref(t.g), ic(4)), 8)
		return want{fault: `access crosses end of allocation unit`, steps: 2}
	})
	add("fault/wrong-space", allCtx, nil, nil, func(t *tb) want {
		if t.ctx == ctxKernel {
			t.store(ic(cpuBuf), ic(1), 8)
			return want{fault: fmt.Sprintf("GPU kernel write of CPU address %#x", cpuBuf), steps: 1}
		}
		t.load(ic(int64(devG)), 1)
		return want{fault: fmt.Sprintf("CPU read of GPU address %#x", devG), steps: 1}
	})
	add("fault/float-bitwise", allCtx, f75, f25, func(t *tb) want {
		t.fop(ir.OpAnd, t.x, t.y)
		return want{fault: "float op and unsupported", steps: 1}
	})
	add("fault/unknown-intrinsic", allCtx, nil, nil, func(t *tb) want {
		t.op(ir.OpAdd, ic(1), ic(1))
		t.intr("nosuch")
		return want{fault: "unknown intrinsic nosuch", steps: 2}
	})
	add("fault/nested-launch", launched, nil, nil, func(t *tb) want {
		t.emit(&ir.Instr{Op: ir.OpLaunch, Callee: t.f, Args: []ir.Value{ic(1), ic(1), ic(0), ic(0)}})
		return want{fault: "nested kernel launch", steps: 1}
	})
	add("fault/map-on-gpu", 1<<ctxKernel|1<<ctxFallback, nil, nil, func(t *tb) want {
		t.intr("cgcm.map", t.ref(t.g))
		return want{fault: "cgcm.map on GPU", steps: 1}
	})
	return cases
}

// buildEngine assembles the module for one case in one context.
func buildEngine(c engineCase, ctx ctxKind) (*ir.Module, want) {
	mod := ir.NewModule("engine")
	g := &ir.Global{Name: "g", Size: 8, Init: binary.LittleEndian.AppendUint64(nil, 41)}
	buf := &ir.Global{Name: "buf", Size: 32}
	str := &ir.Global{Name: "str", Size: 3, Init: []byte("hi\x00")}
	for _, gl := range []*ir.Global{g, buf, str} {
		mod.AddGlobal(gl)
	}

	h := &ir.Func{Name: "h", HasResult: true}
	h.Params = []*ir.Param{{Fn: h, Index: 0, Name: "a"}, {Fn: h, Index: 1, Name: "b"}}
	hb := h.NewBlock("entry")
	sum := hb.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{h.Params[0], h.Params[1]}})
	hb.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{sum}})
	mod.AddFunc(h)

	f := &ir.Func{Name: "t", Kernel: ctx != ctxRoot}
	f.Params = []*ir.Param{{Fn: f, Index: 0, Name: "x"}, {Fn: f, Index: 1, Name: "y"}}
	mod.AddFunc(f)
	t := &tb{ctx: ctx, mod: mod, f: f, b: f.NewBlock("entry"), x: f.Params[0], y: f.Params[1], g: g, buf: buf, str: str}
	w := c.build(t)
	if t.b.Terminator() == nil {
		t.ret()
	}

	main := &ir.Func{Name: "main", HasResult: true}
	mb := main.NewBlock("entry")
	args := []ir.Value{c.x, c.y}
	for i, a := range args {
		if a == nil {
			args[i] = ic(0)
		}
	}
	if ctx == ctxRoot {
		mb.Append(&ir.Instr{Op: ir.OpCall, Callee: f, Args: args})
	} else {
		for _, gl := range []*ir.Global{g, buf} {
			mb.Append(&ir.Instr{Op: ir.OpIntrinsic, Name: "cgcm.map", Args: []ir.Value{&ir.GlobalRef{Global: gl}}})
		}
		mb.Append(&ir.Instr{Op: ir.OpLaunch, Callee: f, Args: append([]ir.Value{ic(1), ic(1)}, args...)})
	}
	mb.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{ic(0)}})
	mod.AddFunc(main)
	mod.Renumber()
	return mod, w
}

// runEngine runs mod the way ctx asks for, keeping the event log when
// keepLog is set.
func runEngine(t *testing.T, mod *ir.Module, ctx ctxKind, keepLog bool) (*Interp, *machine.Machine, string, error) {
	t.Helper()
	m := machine.New(machine.DefaultCostModel())
	if keepLog {
		m.KeepLog()
	}
	rt := runtimelib.New(m)
	if ctx == ctxFallback {
		spec, err := faultinject.ParseSpec("fail=launch@0")
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaultPlan(spec.NewPlan())
		rt.EnableResilience(runtimelib.DefaultResilience())
	}
	var out bytes.Buffer
	in, err := New(mod, m, rt, &out)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in.Workers = 1
	if ctx == ctxInspector {
		in.Mode = Inspector
	}
	_, err = in.Run()
	return in, m, out.String(), err
}

// chargedOps is what the machine was charged for t's instructions, and
// the steps main itself takes before t runs. When t failed, main's call
// and ret never completed; and a kernel thread's partial work is charged
// nowhere, so it is what the worker that ran it still holds.
func chargedOps(in *Interp, ctx ctxKind, st machine.Stats, failed bool) (ops, harnessSteps int64) {
	switch {
	case ctx == ctxRoot && failed:
		return st.CPUOps, 1
	case ctx == ctxRoot:
		return st.CPUOps - 5 - 1, 1 // main's call and ret
	case failed:
		return in.workers[0].ops, 3
	case ctx == ctxFallback:
		return st.FallbackOps, 3
	}
	return st.GPUOps, 3 // two maps and the launch
}

// opNames spells the opcodes in failure messages.
var opNames = [...]string{
	opCharge: "opCharge", opMove: "opMove",
	opAdd: "opAdd", opSub: "opSub", opMul: "opMul", opDiv: "opDiv", opRem: "opRem", opAnd: "opAnd", opOr: "opOr",
	opXor: "opXor", opShl: "opShl", opShr: "opShr", opEq: "opEq", opNe: "opNe", opLt: "opLt", opLe: "opLe",
	opGt: "opGt", opGe: "opGe", opFAdd: "opFAdd", opFSub: "opFSub", opFMul: "opFMul", opFDiv: "opFDiv",
	opFRem: "opFRem", opFEq: "opFEq", opFNe: "opFNe", opFLt: "opFLt", opFLe: "opFLe", opFGt: "opFGt",
	opFGe: "opFGe", opIToF: "opIToF", opFToI: "opFToI", opMulAdd: "opMulAdd", opFMulAdd: "opFMulAdd",
	opFMulSub: "opFMulSub", opAlloca: "opAlloca",
	opLoad8: "opLoad8", opLoad1: "opLoad1", opLoadA8: "opLoadA8", opLoadMA8: "opLoadMA8", opLoadMMA8: "opLoadMMA8",
	opStore8: "opStore8", opStore1: "opStore1", opStoreA8: "opStoreA8", opStoreMA8: "opStoreMA8",
	opStoreMMA8: "opStoreMMA8", opPure: "opPure", opTid: "opTid", opNtid: "opNtid",
	opBr: "opBr", opCondBr: "opCondBr", opBrEq: "opBrEq", opBrNe: "opBrNe", opBrLt: "opBrLt", opBrLe: "opBrLe",
	opBrGt: "opBrGt", opBrGe: "opBrGe", opBrFEq: "opBrFEq", opBrFNe: "opBrFNe", opBrFLt: "opBrFLt",
	opBrFLe: "opBrFLe", opBrFGt: "opBrFGt", opBrFGe: "opBrFGe", opAddBrLt: "opAddBrLt", opRet: "opRet",
	opRetVoid: "opRetVoid", opCall: "opCall", opIntrinsic: "opIntrinsic", opLaunch: "opLaunch", opFault: "opFault",
}

func TestEngineTable(t *testing.T) {
	for _, c := range engineCases() {
		for ctx := ctxRoot; ctx <= ctxInspector; ctx++ {
			if c.ctxs&(1<<ctx) == 0 {
				continue
			}
			c, ctx := c, ctx
			t.Run(c.name+"/"+ctxNames[ctx], func(t *testing.T) {
				mod, w := buildEngine(c, ctx)
				if err := mod.Verify(); err != nil && w.fault == "" {
					t.Fatalf("verify: %v", err)
				}
				in, m, out, err := runEngine(t, mod, ctx, false)
				if out != w.out {
					t.Errorf("output %q, want %q", out, w.out)
				}
				// An opcode listed n times in uses must occur n times or more.
				count := func(ops []opcode, op opcode) (n int) {
					for _, o := range ops {
						if o == op {
							n++
						}
					}
					return n
				}
				var code []opcode
				for _, i := range in.code.insts[in.code.funcs[1].entry:in.code.funcs[2].entry] { // h, t, main
					code = append(code, i.op)
				}
				for _, op := range w.uses {
					if n, want := count(code, op), count(w.uses, op); n < want {
						t.Errorf("lowered t has %s %d times, want %d", opNames[op], n, want)
					}
				}
				for _, op := range w.lacks {
					if count(code, op) != 0 {
						t.Errorf("lowered t has %s", opNames[op])
					}
				}
				ops, harness := chargedOps(in, ctx, m.Stats(), err != nil)
				if w.fault != "" {
					if err == nil || !strings.Contains(err.Error(), w.fault) {
						t.Fatalf("error %v, want one mentioning %q", err, w.fault)
					}
					if got := in.Steps(); got != harness+w.steps {
						t.Errorf("a run that failed at t's instruction %d counted %d steps, want %d", w.steps, got, harness+w.steps)
					}
					if w.ops != 0 && ops != w.ops {
						t.Errorf("a run that failed at t's instruction %d was charged %d ops, want %d", w.steps, ops, w.ops)
					}
					return
				}
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if want := w.ops + 1; ops != want { // + t's ret
					t.Errorf("charged %d ops, want %d", ops, want)
				}
				if want := harness + w.steps + 2; w.steps != 0 && in.Steps() != want { // + t's ret and main's
					t.Errorf("counted %d steps, want %d", in.Steps(), want)
				}
			})
		}
	}
}

// TestEngineProfileIsPerInstruction: with the profiler on, every kernel
// instruction's cost lands on its own source line, whether the engine
// executed it by itself, inside a fused instruction, or as part of a run
// it charged at once — the case bodies give every instruction its own
// line, so the per-line profile must equal the per-instruction costs.
func TestEngineProfileIsPerInstruction(t *testing.T) {
	costOf := func(in *ir.Instr) int64 {
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			return 3
		case ir.OpAlloca:
			return 2
		case ir.OpIntrinsic:
			if row := in.Intrinsic(); row != nil && row.Math {
				return int64(row.Cost)
			}
			switch in.Name {
			case "tid", "ntid", "srand":
				return 1
			}
			return 4 // prints, rand, strlen("hi")
		}
		return 1
	}
	for _, c := range engineCases() {
		if c.ctxs&(1<<ctxKernel) == 0 {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			mod, w := buildEngine(c, ctxKernel)
			switch {
			case w.fault != "":
				t.Skip("successful bodies only")
			case c.name == "call":
				t.Skip("the callee's instructions carry no lines")
			case c.name == "alloca/loop-reuse":
				t.Skip("a re-executed alloca costs 1")
			case c.name == "br+condbr-on-register", c.name == "lower/loop/continue-not-merged":
				t.Skip("a branch the walk below cannot follow")
			}
			_, m, _, err := runEngine(t, mod, ctxKernel, true)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int]int64{}
			for _, ls := range prof.FromLog("engine", m.Log()).Lines {
				got[ls.Line] += ls.GPUOps
			}
			// Walk the path the thread took, each block as often as it ran,
			// adding each executed instruction's cost. A branch goes to its
			// first target whose first instruction the profile saw run more
			// often than the walk has entered it: right for forward branches
			// and for a loop whose body always goes back to its test.
			b := mod.Func("t").Blocks[0]
			want := map[int]int64{}
			entered := map[*ir.Block]int64{}
			for b != nil {
				entered[b]++
				var next *ir.Block
				for _, in := range b.Instrs {
					want[int(in.Line)] += costOf(in)
					if in.Op == ir.OpCondBr || in.Op == ir.OpBr {
						next = takenTarget(in, got, entered, costOf)
					}
				}
				b = next
			}
			for line, ops := range want {
				if got[line] != ops {
					t.Errorf("line %d: profile has %d ops, instruction costs %d", line, got[line], ops)
				}
			}
			for line, ops := range got {
				if _, ok := want[line]; !ok && ops != 0 {
					t.Errorf("line %d: profile has %d ops for an instruction that did not run", line, ops)
				}
			}
		})
	}
}

// takenTarget picks br's first successor with executions left: one whose
// first instruction's profiled ops exceed its cost times the times the
// walk entered it.
func takenTarget(br *ir.Instr, got map[int]int64, entered map[*ir.Block]int64, costOf func(*ir.Instr) int64) *ir.Block {
	for _, b := range br.Targets {
		if first := b.Instrs[0]; got[int(first.Line)] > entered[b]*costOf(first) {
			return b
		}
	}
	return nil
}
