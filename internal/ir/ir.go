// Package ir defines the register-based intermediate representation that
// the CGCM passes transform and the interpreter executes.
//
// The IR is deliberately LLVM-flavored but simpler: functions hold basic
// blocks of instructions; locals live in explicit stack slots created by
// Alloca and accessed through Load/Store (there are no phi nodes — control
// flow joins communicate through memory, which keeps the pass
// implementations close to the paper's pseudo-code, all of which reasons
// about memory operations and calls). Every value is a 64-bit machine word;
// the Float flag records whether the bits are IEEE754 for printing and
// arithmetic selection. Pointers are plain integers indexing the simulated
// machine's address spaces, so arbitrary pointer arithmetic and type
// punning behave exactly as in C — the property CGCM is designed to
// tolerate.
package ir

import (
	"fmt"
	"sync"
)

// Value is anything an instruction can use as an operand.
type Value interface {
	// IsFloat reports whether the value's bits are IEEE754 float64.
	IsFloat() bool
	valueString(fn *Func) string
}

// Const is an immediate constant.
type Const struct {
	Float bool
	Bits  uint64
}

// IntConst returns an integer constant value.
func IntConst(v int64) *Const { return &Const{Bits: uint64(v)} }

// FloatConst returns a floating-point constant value.
func FloatConst(v float64) *Const { return &Const{Float: true, Bits: f2b(v)} }

// IsFloat implements Value.
func (c *Const) IsFloat() bool { return c.Float }

// Int returns the constant's integer value.
func (c *Const) Int() int64 { return int64(c.Bits) }

// Val returns the constant's float value.
func (c *Const) Val() float64 { return b2f(c.Bits) }

func (c *Const) valueString(*Func) string {
	if c.Float {
		return fmt.Sprintf("%g", b2f(c.Bits))
	}
	return fmt.Sprintf("%d", int64(c.Bits))
}

// GlobalRef is the address of a module global; the concrete address is
// assigned when the module is loaded into a machine.
type GlobalRef struct{ Global *Global }

// IsFloat implements Value.
func (g *GlobalRef) IsFloat() bool { return false }

func (g *GlobalRef) valueString(*Func) string { return "@" + g.Global.Name }

// Param is a formal parameter of a function.
type Param struct {
	Fn    *Func
	Index int
	Name  string
	Float bool
	// Reg is the parameter's register slot, assigned by Renumber.
	Reg int
}

// IsFloat implements Value.
func (p *Param) IsFloat() bool { return p.Float }

func (p *Param) valueString(*Func) string { return "%" + p.Name }

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca // result = stack address; Size = bytes; registers an allocation unit
	OpLoad   // result = mem[arg0]; Size = 1 or 8; Float classifies result
	OpStore  // mem[arg0] = arg1; Size = 1 or 8

	// Arithmetic; Float selects integer vs IEEE754.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem

	// Integer-only bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Comparisons; result is int 0/1; Float classifies the operands.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Conversions.
	OpIToF // int -> float
	OpFToI // float -> int (truncate)

	// Calls.
	OpCall      // user function call; Callee set
	OpIntrinsic // builtin/runtime call; Name is a row of Intrinsics ("malloc", "cgcm.map")
	OpLaunch    // GPU kernel launch; Callee = kernel, args[0]=grid, args[1]=block, rest kernel args

	// Terminators.
	OpRet    // optional arg0 = return value
	OpBr     // unconditional; Targets[0]
	OpCondBr // arg0 != 0 ? Targets[0] : Targets[1]
)

var opNames = map[Op]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpIToF: "itof", OpFToI: "ftoi",
	OpCall: "call", OpIntrinsic: "intrinsic", OpLaunch: "launch",
	OpRet: "ret", OpBr: "br", OpCondBr: "condbr",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpRet || o == OpBr || o == OpCondBr }

// HasResult reports whether instructions with this opcode produce a value.
func (o Op) HasResult() bool {
	switch o {
	case OpStore, OpRet, OpBr, OpCondBr, OpLaunch:
		return false
	}
	return true
}

// Instr is a single IR instruction. Instructions that produce a result are
// themselves Values usable as operands of later instructions.
type Instr struct {
	Op    Op
	Args  []Value
	Float bool // result (or, for compares/stores, operand) class

	Size int64 // Load/Store access size in bytes; Alloca allocation size

	Callee *Func  // OpCall / OpLaunch
	Name   string // OpIntrinsic name

	Targets []*Block // OpBr (1), OpCondBr (2)

	Block *Block // owning block
	// Reg is the instruction's result register slot, assigned by Renumber.
	Reg int

	// Comment carries provenance for dumps (e.g. "hoisted by map promotion").
	Comment string

	// Line is the 1-based mini-C source line this instruction was lowered
	// from, or 0 when unknown (synthesized glue). Passes that clone or move
	// instructions preserve it; pass-inserted runtime calls inherit the line
	// of the launch they manage, so the profiler can charge communication to
	// a launch site.
	Line int32
}

// IsFloat implements Value.
func (in *Instr) IsFloat() bool { return in.Float }

func (in *Instr) valueString(fn *Func) string { return fmt.Sprintf("%%v%d", in.Reg) }

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Fn     *Func
	Name   string
	Instrs []*Instr
	// Index is the block's position in Fn.Blocks, maintained by Renumber.
	Index int
}

// Terminator returns the block's final instruction, or nil if the block is
// not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Append adds an instruction at the end of the block (before nothing).
func (b *Block) Append(in *Instr) *Instr {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in immediately before pos within the block. pos must
// be in the block.
func (b *Block) InsertBefore(in, pos *Instr) {
	i := b.indexOf(pos)
	in.Block = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// InsertAfter inserts in immediately after pos within the block.
func (b *Block) InsertAfter(in, pos *Instr) {
	i := b.indexOf(pos)
	in.Block = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+2:], b.Instrs[i+1:])
	b.Instrs[i+1] = in
}

// Remove deletes in from the block.
func (b *Block) Remove(in *Instr) {
	i := b.indexOf(in)
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.Block = nil
}

func (b *Block) indexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	panic(&InternalError{Msg: fmt.Sprintf("ir: instruction %s not in block %s", in.Op, b.Name)})
}

// Func is a function: parameters plus a block list; Blocks[0] is the entry.
type Func struct {
	Name   string
	Params []*Param
	Blocks []*Block
	Kernel bool
	// HasResult records whether the function returns a value (float or int
	// classified by ResultFloat).
	HasResult   bool
	ResultFloat bool
	// NumRegs is the register file size after Renumber.
	NumRegs int
	// Module is the owning module.
	Module *Module

	nextBlockID int
}

// NewBlock creates a block with a unique name derived from hint and
// appends it to the function.
func (f *Func) NewBlock(hint string) *Block {
	b := &Block{Fn: f, Name: fmt.Sprintf("%s%d", hint, f.nextBlockID)}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Renumber assigns register slots to parameters and result-producing
// instructions and refreshes block indices. Call after structural changes.
func (f *Func) Renumber() {
	n := 0
	for _, p := range f.Params {
		p.Reg = n
		n++
	}
	for bi, b := range f.Blocks {
		b.Index = bi
		for _, in := range b.Instrs {
			if in.Op.HasResult() {
				in.Reg = n
				n++
			} else {
				in.Reg = -1
			}
		}
	}
	f.NumRegs = n
}

// Preds computes the predecessor map for the function's blocks.
func (f *Func) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// Instrs calls fn for every instruction in the function.
func (f *Func) Instrs(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// Global is a module-level variable: a named allocation unit with optional
// initial bytes.
type Global struct {
	Name     string
	Size     int64
	Init     []byte // nil or len Size
	ReadOnly bool
	// Float records element interpretation for dumps only.
	Float bool
}

// Module is a linked program: globals plus functions, with main as entry.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	byName map[string]*Func

	// derived memoises a form an executor derives from the finished
	// module (see Derived).
	deriveOnce sync.Once
	derived    any
}

// Derived returns the value build produced the first time Derived was
// called on this module, calling build only that once however many
// goroutines ask. The interpreter keeps its lowered code here, so every
// run of a compiled program — concurrent ones included — shares one
// lowering and compilation itself pays nothing for it. The module must
// not be mutated after the first call: the derived form would not follow.
func (m *Module) Derived(build func(*Module) any) any {
	m.deriveOnce.Do(func() { m.derived = build(m) })
	return m.derived
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: make(map[string]*Func)}
}

// AddFunc appends a function to the module.
func (m *Module) AddFunc(f *Func) {
	f.Module = m
	m.Funcs = append(m.Funcs, f)
	m.byName[f.Name] = f
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func { return m.byName[name] }

// AddGlobal appends a global to the module.
func (m *Module) AddGlobal(g *Global) { m.Globals = append(m.Globals, g) }

// GlobalByName returns the named global, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Renumber renumbers every function in the module.
func (m *Module) Renumber() {
	for _, f := range m.Funcs {
		f.Renumber()
	}
}
