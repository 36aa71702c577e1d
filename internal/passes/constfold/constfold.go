// Package constfold implements constant folding and trivial algebraic
// simplification on the IR.
//
// The pass exists for the same reason production compilers run it before
// loop analyses: downstream passes reason more precisely about folded
// code. In particular the DOALL parallelizer's dependence test can only
// compute static trip counts from literal bounds, and front-end output
// is full of `mul 48, 48`-style trees. Folding runs before the
// parallelizer in the standard pipeline.
package constfold

import (
	"fmt"
	"math"

	"cgcm/internal/ir"
)

// Result reports pass activity.
type Result struct {
	Folded     int // instructions replaced by constants
	Simplified int // instructions replaced by an existing operand
	Deleted    int // dead foldable instructions removed
}

// Run folds the whole module to a fixed point.
func Run(m *ir.Module) (*Result, error) {
	res := &Result{}
	for _, f := range m.Funcs {
		for {
			changed := foldOnce(f, res)
			changed = removeDead(f, res) || changed
			if !changed {
				break
			}
		}
		f.Renumber()
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("constfold produced invalid IR: %w", err)
	}
	return res, nil
}

// foldOnce sweeps f once, folding what it can. An instruction sees the
// folds made earlier in the sweep: repl maps each folded instruction to
// its replacement, and operands are rewritten as their user is reached,
// so a sweep costs the function once however many instructions fold.
func foldOnce(f *ir.Func, res *Result) bool {
	var repl map[*ir.Instr]ir.Value
	rewrite := func(in *ir.Instr) {
		for i, a := range in.Args {
			for x, ok := a.(*ir.Instr); ok; x, ok = a.(*ir.Instr) {
				r, folded := repl[x]
				if !folded {
					break
				}
				a = r
			}
			in.Args[i] = a
		}
	}
	f.Instrs(func(in *ir.Instr) {
		if repl != nil {
			rewrite(in)
		}
		if v, ok := foldInstr(in); ok {
			if repl == nil {
				repl = make(map[*ir.Instr]ir.Value)
			}
			repl[in] = v
			if _, isConst := v.(*ir.Const); isConst {
				res.Folded++
			} else {
				res.Simplified++
			}
		}
	})
	if repl == nil {
		return false
	}
	// Users that come before the definition in block order were reached
	// too early.
	f.Instrs(rewrite)
	return true
}

// foldInstr computes a replacement value for in, if one exists.
func foldInstr(in *ir.Instr) (ir.Value, bool) {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		x, xOK := in.Args[0].(*ir.Const)
		y, yOK := in.Args[1].(*ir.Const)
		if xOK && yOK {
			return foldBinary(in, x, y)
		}
		return simplifyAlgebraic(in, x, xOK, y, yOK)
	case ir.OpIToF:
		if c, ok := in.Args[0].(*ir.Const); ok && !c.Float {
			return ir.FloatConst(float64(c.Int())), true
		}
	case ir.OpFToI:
		if c, ok := in.Args[0].(*ir.Const); ok && c.Float {
			return ir.IntConst(int64(c.Val())), true
		}
	}
	return nil, false
}

func foldBinary(in *ir.Instr, x, y *ir.Const) (ir.Value, bool) {
	if in.Float {
		a, b := x.Val(), y.Val()
		switch in.Op {
		case ir.OpAdd:
			return ir.FloatConst(a + b), true
		case ir.OpSub:
			return ir.FloatConst(a - b), true
		case ir.OpMul:
			return ir.FloatConst(a * b), true
		case ir.OpDiv:
			return ir.FloatConst(a / b), true
		case ir.OpRem:
			return ir.FloatConst(math.Mod(a, b)), true
		case ir.OpEq:
			return boolConst(a == b), true
		case ir.OpNe:
			return boolConst(a != b), true
		case ir.OpLt:
			return boolConst(a < b), true
		case ir.OpLe:
			return boolConst(a <= b), true
		case ir.OpGt:
			return boolConst(a > b), true
		case ir.OpGe:
			return boolConst(a >= b), true
		}
		return nil, false
	}
	a, b := x.Int(), y.Int()
	switch in.Op {
	case ir.OpAdd:
		return ir.IntConst(a + b), true
	case ir.OpSub:
		return ir.IntConst(a - b), true
	case ir.OpMul:
		return ir.IntConst(a * b), true
	case ir.OpDiv:
		if b == 0 {
			return nil, false // preserve the runtime fault
		}
		return ir.IntConst(a / b), true
	case ir.OpRem:
		if b == 0 {
			return nil, false
		}
		return ir.IntConst(a % b), true
	case ir.OpAnd:
		return ir.IntConst(a & b), true
	case ir.OpOr:
		return ir.IntConst(a | b), true
	case ir.OpXor:
		return ir.IntConst(a ^ b), true
	case ir.OpShl:
		return ir.IntConst(int64(uint64(a) << (uint64(b) & 63))), true
	case ir.OpShr:
		return ir.IntConst(a >> (uint64(b) & 63)), true
	case ir.OpEq:
		return boolConst(a == b), true
	case ir.OpNe:
		return boolConst(a != b), true
	case ir.OpLt:
		return boolConst(a < b), true
	case ir.OpLe:
		return boolConst(a <= b), true
	case ir.OpGt:
		return boolConst(a > b), true
	case ir.OpGe:
		return boolConst(a >= b), true
	}
	return nil, false
}

// simplifyAlgebraic handles x+0, x*1, x*0, x-0, x/1, x&0, shifts by 0.
// Float identities are restricted to cases that are exact under IEEE754
// for finite inputs (x*1, x/1); x+0.0 is NOT folded (wrong for -0.0),
// and x*0 is never folded for floats (NaN/Inf).
func simplifyAlgebraic(in *ir.Instr, x *ir.Const, xOK bool, y *ir.Const, yOK bool) (ir.Value, bool) {
	isZero := func(c *ir.Const) bool {
		if in.Float {
			return false
		}
		return c.Int() == 0
	}
	isOne := func(c *ir.Const) bool {
		if in.Float {
			return c.Val() == 1.0
		}
		return c.Int() == 1
	}
	switch in.Op {
	case ir.OpAdd:
		if yOK && isZero(y) {
			return in.Args[0], true
		}
		if xOK && isZero(x) {
			return in.Args[1], true
		}
	case ir.OpSub:
		if yOK && isZero(y) {
			return in.Args[0], true
		}
	case ir.OpMul:
		// Integer x*1 is deliberately NOT simplified: the front end's
		// pointer-arithmetic scaling (`mul index, elemsize` with elemsize
		// 1 for char) is the structural cue type inference uses to tell
		// index offsets from pointer bases.
		if in.Float {
			if yOK && isOne(y) {
				return in.Args[0], true
			}
			if xOK && isOne(x) {
				return in.Args[1], true
			}
		}
		if !in.Float {
			if yOK && isZero(y) {
				return ir.IntConst(0), true
			}
			if xOK && isZero(x) {
				return ir.IntConst(0), true
			}
		}
	case ir.OpDiv:
		if yOK && isOne(y) {
			return in.Args[0], true
		}
	case ir.OpShl, ir.OpShr:
		if yOK && !in.Float && y.Int() == 0 {
			return in.Args[0], true
		}
	case ir.OpAnd:
		if yOK && isZero(y) {
			return ir.IntConst(0), true
		}
	case ir.OpOr, ir.OpXor:
		if yOK && isZero(y) {
			return in.Args[0], true
		}
	}
	return nil, false
}

func boolConst(b bool) ir.Value {
	if b {
		return ir.IntConst(1)
	}
	return ir.IntConst(0)
}

// removeDead deletes pure instructions whose results are unused.
func removeDead(f *ir.Func, res *Result) bool {
	used := make(map[*ir.Instr]bool)
	f.Instrs(func(in *ir.Instr) {
		for _, a := range in.Args {
			if x, ok := a.(*ir.Instr); ok {
				used[x] = true
			}
		}
	})
	changed := false
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if used[in] || !in.Op.HasResult() {
				continue
			}
			if !in.Pure() {
				continue
			}
			b.Remove(in)
			res.Deleted++
			changed = true
		}
	}
	return changed
}
