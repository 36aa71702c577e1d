package ir

import "fmt"

// Verify checks structural invariants of the module: every block ends in
// exactly one terminator, branch targets belong to the same function,
// instruction operands are defined (params of the same function, constants,
// globals of the module, or instructions belonging to the function), and
// call targets exist. It returns the first violation found.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks structural invariants of a single function. Membership
// is read off the numbers Renumber assigns, a block's Index and an
// instruction's Reg, so the function is renumbered first if they are
// stale.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("has no blocks")
	}
	if !f.numbered() {
		f.Renumber()
	}
	defined := make([]*Instr, f.NumRegs)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasResult() {
				defined[in.Reg] = in
			}
		}
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.Block != b {
				return fmt.Errorf("block %s: instruction %s has wrong owner", b.Name, in.Op)
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("block %s: terminator placement violated at %s", b.Name, in.Op)
			}
			for _, a := range in.Args {
				switch v := a.(type) {
				case *Const:
				case *GlobalRef:
					if f.Module != nil && f.Module.GlobalByName(v.Global.Name) == nil {
						return fmt.Errorf("block %s: reference to foreign global %s", b.Name, v.Global.Name)
					}
				case *Param:
					if v.Fn != f {
						return fmt.Errorf("block %s: uses parameter %s of foreign function %s", b.Name, v.Name, v.Fn.Name)
					}
				case *Instr:
					if v.Reg < 0 || v.Reg >= len(defined) || defined[v.Reg] != v {
						return fmt.Errorf("block %s: %s uses undefined instruction value", b.Name, in.Op)
					}
				case nil:
					return fmt.Errorf("block %s: nil operand on %s", b.Name, in.Op)
				default:
					return fmt.Errorf("block %s: unknown operand kind %T", b.Name, a)
				}
			}
			for _, t := range in.Targets {
				if t.Index < 0 || t.Index >= len(f.Blocks) || f.Blocks[t.Index] != t {
					return fmt.Errorf("block %s: branch to foreign block %s", b.Name, t.Name)
				}
			}
			switch in.Op {
			case OpBr:
				if len(in.Targets) != 1 {
					return fmt.Errorf("block %s: br needs 1 target", b.Name)
				}
			case OpCondBr:
				if len(in.Targets) != 2 || len(in.Args) != 1 {
					return fmt.Errorf("block %s: condbr needs 1 arg and 2 targets", b.Name)
				}
			case OpLoad:
				if len(in.Args) != 1 || (in.Size != 1 && in.Size != 8) {
					return fmt.Errorf("block %s: malformed load", b.Name)
				}
			case OpStore:
				if len(in.Args) != 2 || (in.Size != 1 && in.Size != 8) {
					return fmt.Errorf("block %s: malformed store", b.Name)
				}
			case OpCall:
				if in.Callee == nil {
					return fmt.Errorf("block %s: call with nil callee", b.Name)
				}
			case OpLaunch:
				if in.Callee == nil || !in.Callee.Kernel {
					return fmt.Errorf("block %s: launch target is not a kernel", b.Name)
				}
				if len(in.Args) < 2 {
					return fmt.Errorf("block %s: launch needs grid and block args", b.Name)
				}
				if len(in.Args)-2 != len(in.Callee.Params) {
					return fmt.Errorf("block %s: launch of %s passes %d args, kernel has %d params",
						b.Name, in.Callee.Name, len(in.Args)-2, len(in.Callee.Params))
				}
			case OpIntrinsic:
				if in.Name == "" {
					return fmt.Errorf("block %s: intrinsic with empty name", b.Name)
				}
			}
		}
	}
	return nil
}

// numbered reports whether f's block indices and result registers are
// the ones Renumber would assign, which is all Verify reads.
func (f *Func) numbered() bool {
	n := len(f.Params)
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasResult() {
				if in.Reg != n {
					return false
				}
				n++
			}
		}
		if b.Index != bi {
			return false
		}
	}
	return f.NumRegs == n
}
