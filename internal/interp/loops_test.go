package interp

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/ir"
)

// TestLoweredFormsKeepTheCounts: every "lower/" engine row comes as a
// fused spelling, which the lowering merges, copies or fuses, and an
// unfused one, which a use in a block that never runs stops it from
// lowering so. Both execute the same instructions, so in every context
// they must agree on output, fault, steps, charged ops and, in inspector
// mode, on how many accesses the inspector walked.
func TestLoweredFormsKeepTheCounts(t *testing.T) {
	type counts struct {
		out, err              string
		steps, ops, inspected int64
	}
	measure := func(t *testing.T, c engineCase, ctx ctxKind) counts {
		mod, _ := buildEngine(c, ctx)
		in, m, out, err := runEngine(t, mod, ctx, false)
		r := counts{out: out, steps: in.Steps()}
		r.ops, _ = chargedOps(in, ctx, m.Stats(), err != nil)
		if err != nil {
			r.err = err.Error()
		} else if ctx == ctxInspector {
			r.inspected = inspected(t, mod)
		}
		return r
	}
	cases := engineCases()
	byName := map[string]engineCase{}
	for _, c := range cases {
		byName[c.name] = c
	}
	pairs := 0
	for _, c := range cases {
		name, ok := strings.CutSuffix(c.name, "/fused")
		if !ok || !strings.HasPrefix(name, "lower/") {
			continue
		}
		u, ok := byName[name+"/unfused"]
		if !ok {
			t.Fatalf("%s has no unfused spelling", c.name)
		}
		pairs++
		for ctx := ctxRoot; ctx <= ctxInspector; ctx++ {
			if c.ctxs&(1<<ctx) == 0 {
				continue
			}
			t.Run(name+"/"+ctxNames[ctx], func(t *testing.T) {
				if a, b := measure(t, c, ctx), measure(t, u, ctx); a != b {
					t.Errorf("fused %+v, unfused %+v", a, b)
				}
			})
		}
	}
	if pairs < 4 {
		t.Fatalf("only %d fused/unfused pairs", pairs)
	}
}

// LoweringMisses lowers mod and names, by function and block, every place
// the lowering's loop forms should apply and do not:
//   - a br to the next block in layout order that is that block's only
//     way in, still an opBr;
//   - a br back to a block that lowered to an opCharge and a conditional
//     branch alone, still an opBr;
//   - an 8-byte load or store whose address is
//     add(base, mul(add(mul(x, y), z), 8)), every part an integer op with
//     one use, in the access's block, defined after its own operands
//     there, yet not one row-major instruction;
//   - a latch whose copied test is an integer < of a local that the
//     latch's last two instructions set to an integer add, used once and
//     computing no multiply, where the add did not join the test;
//   - a multiply, used once, in its block, defined after its own operands
//     there, of the kind of the add or float subtract after it that it
//     feeds (as its subtrahend), where the add is not part of an address
//     and the two are not one instruction.
//
// The fusion criteria are restated from the IR, not read from the
// lowering, so the suite test that calls this notices fusion narrowing.
func LoweringMisses(mod *ir.Module) []string {
	c := lowered(mod)
	pcs := emittedPCs(c)
	origs := origsOf(mod, pcs)
	opOf := func(in *ir.Instr) opcode {
		if pc, ok := pcs[origs[in]]; ok {
			return c.insts[pc].op
		}
		return opCharge // stands for nothing of its own
	}
	var out []string
	for _, f := range mod.Funcs {
		uses := map[*ir.Instr]int{}
		preds := map[*ir.Block]int{}
		pos := map[*ir.Instr]int{} // within its block
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				pos[in] = i
				for _, a := range in.Args {
					if x, ok := a.(*ir.Instr); ok {
						uses[x]++
					}
				}
				for _, t := range in.Targets {
					preds[t]++
				}
			}
		}
		// part returns operand i of x when x can compute it: an op of kind
		// op, float or not, used once, in x's block, before x and after its
		// own operands.
		part := func(x *ir.Instr, i int, op ir.Op, float bool) *ir.Instr {
			y, ok := x.Args[i].(*ir.Instr)
			if !ok || y.Op != op || y.Float != float || len(y.Args) != 2 || y.Block != x.Block || uses[y] != 1 || pos[y] >= pos[x] {
				return nil
			}
			for _, a := range y.Args {
				if d, ok := a.(*ir.Instr); ok && d.Block == y.Block && pos[d] >= pos[y] {
					return nil
				}
			}
			return y
		}
		rowMajor := func(m *ir.Instr) bool {
			add := part(m, 0, ir.OpAdd, false)
			for i := 0; add != nil && i < 2; i++ {
				mul := part(add, i, ir.OpMul, false)
				for j := 0; mul != nil && j < 2; j++ {
					idx := part(mul, j, ir.OpAdd, false)
					if k, ok := mul.Args[1-j].(*ir.Const); idx == nil || !ok || k.Float || k.Bits != 8 {
						continue
					}
					if part(idx, 0, ir.OpMul, false) != nil || part(idx, 1, ir.OpMul, false) != nil {
						return true
					}
				}
			}
			return false
		}
		// product returns the multiply the add or float subtract x could
		// compute, nil when none.
		product := func(x *ir.Instr) *ir.Instr {
			switch {
			case len(x.Args) != 2:
			case x.Op == ir.OpAdd:
				if y := part(x, 1, ir.OpMul, x.Float); y != nil {
					return y
				}
				return part(x, 0, ir.OpMul, x.Float)
			case x.Op == ir.OpSub && x.Float:
				return part(x, 1, ir.OpMul, true)
			}
			return nil
		}
		copyable := func(h *ir.Block) bool {
			pc, ok := pcs[origs[h.Instrs[len(h.Instrs)-1]]]
			return ok && c.insts[pc].op >= opCondBr && c.insts[pc].op <= opBrFGe && pc > 0 &&
				c.insts[pc-1].op == opCharge && c.sites[pc-1].orig == origs[h.Instrs[0]]
		}
		// latchAdd returns the add that latch b, ending in a br back to
		// loop test h, stores just before its br into the local h's
		// integer < compares first; nil when there is none such, used once
		// and computing no multiply.
		latchAdd := func(b, h *ir.Block) *ir.Instr {
			n, cond := len(b.Instrs), h.Terminator()
			if h.Index >= b.Index || n < 3 || cond.Op != ir.OpCondBr {
				return nil
			}
			cmp, ok := cond.Args[0].(*ir.Instr)
			if !ok || cmp.Op != ir.OpLt || cmp.Float || cmp.Block != h {
				return nil
			}
			ld, ok := cmp.Args[0].(*ir.Instr)
			st, add := b.Instrs[n-2], b.Instrs[n-3]
			if !ok || ld.Op != ir.OpLoad || st.Op != ir.OpStore || st.Args[0] != ld.Args[0] || st.Args[1] != ir.Value(add) ||
				add.Op != ir.OpAdd || add.Float || uses[add] != 1 || product(add) != nil {
				return nil
			}
			return add
		}
		for _, b := range f.Blocks {
			where := fmt.Sprintf("%s: block %d (%s)", f.Name, b.Index, b.Name)
			for _, in := range b.Instrs {
				if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && in.Size == 8 && len(in.Args) > 0 && rowMajor(in) {
					if op := opOf(in); op != opLoadMMA8 && op != opStoreMMA8 {
						out = append(out, where+": row-major "+in.String()+" is not one access")
					}
				}
				// An add with no instruction of its own is part of an address.
				if y := product(in); y != nil && opOf(in) != opCharge {
					want := opMulAdd
					switch {
					case in.Op == ir.OpSub:
						want = opFMulSub
					case in.Float:
						want = opFMulAdd
					}
					if opOf(in) != want {
						out = append(out, where+": "+y.String()+" feeding "+in.String()+" is not one instruction with it")
					}
				}
			}
			br := b.Terminator()
			if br == nil || br.Op != ir.OpBr {
				continue
			}
			switch to := br.Targets[0]; {
			case opOf(br) != opBr:
				if add := latchAdd(b, to); add != nil && opOf(add) != opAddBrLt {
					out = append(out, where+": latch "+add.String()+" did not join the copied test of "+to.Name)
				}
			case to.Index == b.Index+1 && preds[to] == 1:
				out = append(out, where+": br to "+to.Name+", its only way in, did not merge")
			case to.Index < b.Index && copyable(to):
				out = append(out, where+": br back to loop test "+to.Name+" was not copied")
			}
		}
	}
	return out
}
