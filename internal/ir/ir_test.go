package ir

import (
	"strings"
	"testing"
)

// buildAddFunc creates: func add(a, b) { entry: v = a+b; ret v }
func buildAddFunc(m *Module) *Func {
	f := &Func{Name: "add", HasResult: true}
	a := &Param{Fn: f, Index: 0, Name: "a"}
	b := &Param{Fn: f, Index: 1, Name: "b"}
	f.Params = []*Param{a, b}
	blk := f.NewBlock("entry")
	sum := blk.Append(&Instr{Op: OpAdd, Args: []Value{a, b}})
	blk.Append(&Instr{Op: OpRet, Args: []Value{sum}})
	m.AddFunc(f)
	return f
}

func TestModuleBasics(t *testing.T) {
	m := NewModule("test")
	f := buildAddFunc(m)
	m.Renumber()
	if m.Func("add") != f {
		t.Error("Func lookup failed")
	}
	if m.Func("missing") != nil {
		t.Error("lookup of missing function succeeded")
	}
	g := &Global{Name: "g", Size: 8}
	m.AddGlobal(g)
	if m.GlobalByName("g") != g {
		t.Error("global lookup failed")
	}
	if err := m.Verify(); err != nil {
		t.Errorf("valid module fails verify: %v", err)
	}
}

func TestConstValues(t *testing.T) {
	c := IntConst(-5)
	if c.Int() != -5 || c.IsFloat() {
		t.Error("IntConst wrong")
	}
	fc := FloatConst(2.5)
	if fc.Val() != 2.5 || !fc.IsFloat() {
		t.Error("FloatConst wrong")
	}
	if B2F(F2B(3.25)) != 3.25 {
		t.Error("bit conversion roundtrip failed")
	}
}

func TestBlockInsertRemove(t *testing.T) {
	m := NewModule("t")
	f := buildAddFunc(m)
	blk := f.Entry()
	sum := blk.Instrs[0]

	mul := &Instr{Op: OpMul, Args: []Value{f.Params[0], IntConst(2)}}
	blk.InsertBefore(mul, sum)
	if blk.Instrs[0] != mul {
		t.Error("InsertBefore misplaced")
	}
	div := &Instr{Op: OpDiv, Args: []Value{sum, IntConst(2)}}
	blk.InsertAfter(div, sum)
	if blk.Instrs[2] != div {
		t.Error("InsertAfter misplaced")
	}
	blk.Remove(mul)
	if blk.Instrs[0] != sum {
		t.Error("Remove failed")
	}
	if mul.Block != nil {
		t.Error("removed instruction keeps owner")
	}
}

func TestRenumber(t *testing.T) {
	m := NewModule("t")
	f := buildAddFunc(m)
	f.Renumber()
	if f.Params[0].Reg != 0 || f.Params[1].Reg != 1 {
		t.Errorf("param regs %d %d", f.Params[0].Reg, f.Params[1].Reg)
	}
	sum := f.Entry().Instrs[0]
	ret := f.Entry().Instrs[1]
	if sum.Reg != 2 {
		t.Errorf("sum reg %d", sum.Reg)
	}
	if ret.Reg != -1 {
		t.Errorf("ret got a register: %d", ret.Reg)
	}
	if f.NumRegs != 3 {
		t.Errorf("NumRegs = %d", f.NumRegs)
	}
}

func TestVerifyCatchesMalformed(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Module)
		want  string
	}{
		{"empty block", func(m *Module) {
			f := &Func{Name: "f"}
			f.NewBlock("entry")
			m.AddFunc(f)
		}, "empty"},
		{"missing terminator", func(m *Module) {
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpAdd, Args: []Value{IntConst(1), IntConst(2)}})
			m.AddFunc(f)
		}, "terminator"},
		{"mid-block terminator", func(m *Module) {
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpRet})
			b.Append(&Instr{Op: OpRet})
			m.AddFunc(f)
		}, "terminator"},
		{"foreign branch target", func(m *Module) {
			f := &Func{Name: "f"}
			g := &Func{Name: "g"}
			gb := g.NewBlock("gentry")
			gb.Append(&Instr{Op: OpRet})
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpBr, Targets: []*Block{gb}})
			m.AddFunc(f)
			m.AddFunc(g)
		}, "foreign block"},
		{"undefined operand", func(m *Module) {
			f := &Func{Name: "f"}
			orphan := &Instr{Op: OpAdd, Args: []Value{IntConst(1), IntConst(2)}}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpRet, Args: []Value{orphan}})
			m.AddFunc(f)
		}, "undefined"},
		{"bad load size", func(m *Module) {
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpLoad, Args: []Value{IntConst(0)}, Size: 4})
			b.Append(&Instr{Op: OpRet})
			m.AddFunc(f)
		}, "malformed load"},
		{"launch arity", func(m *Module) {
			k := &Func{Name: "k", Kernel: true}
			kb := k.NewBlock("entry")
			kb.Append(&Instr{Op: OpRet})
			k.Params = []*Param{{Fn: k, Name: "p"}}
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpLaunch, Callee: k, Args: []Value{IntConst(1), IntConst(1)}})
			b.Append(&Instr{Op: OpRet})
			m.AddFunc(k)
			m.AddFunc(f)
		}, "passes 0 args"},
		{"launch of non-kernel", func(m *Module) {
			g := &Func{Name: "g"}
			gb := g.NewBlock("entry")
			gb.Append(&Instr{Op: OpRet})
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpLaunch, Callee: g, Args: []Value{IntConst(1), IntConst(1)}})
			b.Append(&Instr{Op: OpRet})
			m.AddFunc(g)
			m.AddFunc(f)
		}, "not a kernel"},
		// Membership is read off register numbers and block indices: an
		// operand from another function whose number is in range, and a
		// target that left the function with a stale index.
		{"operand of another function", func(m *Module) {
			g := &Func{Name: "g"}
			gb := g.NewBlock("entry")
			x := gb.Append(&Instr{Op: OpAdd, Args: []Value{IntConst(1), IntConst(2)}})
			gb.Append(&Instr{Op: OpRet})
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			b.Append(&Instr{Op: OpAdd, Args: []Value{IntConst(3), IntConst(4)}})
			b.Append(&Instr{Op: OpRet, Args: []Value{x}})
			m.AddFunc(f)
			m.AddFunc(g)
			m.Renumber()
		}, "undefined"},
		{"target removed from the function", func(m *Module) {
			f := &Func{Name: "f"}
			b := f.NewBlock("entry")
			gone := f.NewBlock("gone")
			gone.Append(&Instr{Op: OpRet})
			b.Append(&Instr{Op: OpBr, Targets: []*Block{gone}})
			m.AddFunc(f)
			f.Renumber()
			f.Blocks = f.Blocks[:1]
		}, "foreign block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewModule("t")
			c.build(m)
			err := m.Verify()
			if err == nil {
				t.Fatalf("verify accepted malformed module")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestVerifyRenumbersStaleNumbers: a well-formed function whose numbers
// went stale (an instruction inserted since the last Renumber) verifies,
// and comes out numbered.
func TestVerifyRenumbersStaleNumbers(t *testing.T) {
	m := NewModule("t")
	f := buildAddFunc(m)
	m.Renumber()
	entry := f.Entry()
	first := &Instr{Op: OpMul, Args: []Value{f.Params[0], IntConst(2)}}
	entry.InsertBefore(first, entry.Instrs[0])
	entry.Instrs[1].Args[0] = first
	if err := m.Verify(); err != nil {
		t.Fatalf("verify rejected a well-formed function with stale numbers: %v", err)
	}
	if first.Reg != len(f.Params) || entry.Instrs[1].Reg != first.Reg+1 {
		t.Errorf("registers %d, %d after Verify, want %d, %d", first.Reg, entry.Instrs[1].Reg, len(f.Params), len(f.Params)+1)
	}
}

func TestCloneInstrRemaps(t *testing.T) {
	m := NewModule("t")
	f := buildAddFunc(m)
	sum := f.Entry().Instrs[0]
	repl := IntConst(9)
	c := CloneInstr(sum, map[Value]Value{f.Params[0]: repl})
	if c.Args[0] != repl || c.Args[1] != f.Params[1] {
		t.Error("remap not applied correctly")
	}
	if c.Block != nil {
		t.Error("clone has an owner before placement")
	}
	// Mutating clone args must not affect the original.
	c.Args[1] = repl
	if sum.Args[1] != f.Params[1] {
		t.Error("clone shares arg slice with original")
	}
}

func TestReplaceUses(t *testing.T) {
	m := NewModule("t")
	f := buildAddFunc(m)
	nine := IntConst(9)
	f.ReplaceUses(f.Params[0], nine)
	if f.Entry().Instrs[0].Args[0] != nine {
		t.Error("ReplaceUses missed a use")
	}
}

func TestDefChainOrder(t *testing.T) {
	m := NewModule("t")
	f := &Func{Name: "f"}
	b := f.NewBlock("entry")
	x := b.Append(&Instr{Op: OpAdd, Args: []Value{IntConst(1), IntConst(2)}})
	y := b.Append(&Instr{Op: OpMul, Args: []Value{x, IntConst(3)}})
	z := b.Append(&Instr{Op: OpSub, Args: []Value{y, x}})
	b.Append(&Instr{Op: OpRet, Args: []Value{z}})
	m.AddFunc(f)

	chain := DefChain(z)
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	pos := map[*Instr]int{}
	for i, in := range chain {
		pos[in] = i
	}
	if !(pos[x] < pos[y] && pos[y] < pos[z]) {
		t.Errorf("chain not def-before-use: %v", pos)
	}
}

func TestPredsAndSuccs(t *testing.T) {
	m := NewModule("t")
	f := &Func{Name: "f"}
	a := f.NewBlock("a")
	bb := f.NewBlock("b")
	c := f.NewBlock("c")
	a.Append(&Instr{Op: OpCondBr, Args: []Value{IntConst(1)}, Targets: []*Block{bb, c}})
	bb.Append(&Instr{Op: OpBr, Targets: []*Block{c}})
	c.Append(&Instr{Op: OpRet})
	m.AddFunc(f)

	if len(a.Succs()) != 2 {
		t.Errorf("a succs = %d", len(a.Succs()))
	}
	preds := f.Preds()
	if len(preds[c]) != 2 {
		t.Errorf("c preds = %d", len(preds[c]))
	}
	if err := m.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestPrinting(t *testing.T) {
	m := NewModule("t")
	buildAddFunc(m)
	s := m.String()
	for _, want := range []string{"func @add", "%v2 = add", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q:\n%s", want, s)
		}
	}
}

func TestIsRuntimeCall(t *testing.T) {
	in := &Instr{Op: OpIntrinsic, Name: "cgcm.map"}
	if !in.IsRuntimeCall("map") || !in.IsRuntimeCall("") || in.IsRuntimeCall("unmap") {
		t.Error("IsRuntimeCall misclassified")
	}
	other := &Instr{Op: OpIntrinsic, Name: "malloc"}
	if other.IsRuntimeCall("") {
		t.Error("malloc classified as runtime call")
	}
}
