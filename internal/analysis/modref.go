package analysis

import "cgcm/internal/ir"

// intrinsicEffect describes which pointer arguments an intrinsic reads or
// writes through. Math and RNG intrinsics access no program memory.
type intrinsicEffect struct {
	refArgs []int // argument indices whose pointees are read
	modArgs []int // argument indices whose pointees are written
	// refContents marks doubly-indirect reads (element units of arg 0).
	refContents bool
	modContents bool
}

// Runtime-library calls (cgcm.*) are deliberately absent: although map
// reads a unit and unmap writes it, those effects are exactly the
// communication map promotion reasons about, and treating them as
// ordinary CPU accesses would stop candidates from climbing past other
// (balanced) runtime calls on the same unit. This is sound because while
// a hoisted map holds a reference, interior maps copy nothing, interior
// releases cannot free, and interior unmaps only refresh the CPU copy —
// and CGCM's no-pointer-stores restriction means no unmap can change a
// pointer chain's value.
var intrinsicEffects = map[string]intrinsicEffect{
	"free":      {modArgs: []int{0}},
	"realloc":   {refArgs: []int{0}, modArgs: []int{0}},
	"strlen":    {refArgs: []int{0}},
	"print_str": {refArgs: []int{0}},
}

// ModRef computes, per function, the abstract objects the function (and
// its CPU-side callees, transitively) may read and write. Kernel bodies
// are excluded: GPU code touches device copies, never the host allocation
// units these sets describe.
type ModRef struct {
	PT *PointsTo
	CG *CallGraph

	mod map[*ir.Func]ObjSet
	ref map[*ir.Func]ObjSet
}

// BuildModRef computes summaries to a fixed point.
func BuildModRef(m *ir.Module, pt *PointsTo, cg *CallGraph) *ModRef {
	mr := &ModRef{
		PT: pt, CG: cg,
		mod: make(map[*ir.Func]ObjSet),
		ref: make(map[*ir.Func]ObjSet),
	}
	for _, f := range m.Funcs {
		mr.mod[f] = make(ObjSet)
		mr.ref[f] = make(ObjSet)
	}
	changed := true
	for changed {
		changed = false
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) {
				mod, ref := mr.instrEffect(in, nil)
				if mr.mod[f].addAll(mod) {
					changed = true
				}
				if mr.ref[f].addAll(ref) {
					changed = true
				}
			})
		}
	}
	return mr
}

// FuncMod returns the summary mod set of f.
func (mr *ModRef) FuncMod(f *ir.Func) ObjSet { return mr.mod[f] }

// FuncRef returns the summary ref set of f.
func (mr *ModRef) FuncRef(f *ir.Func) ObjSet { return mr.ref[f] }

// instrEffect returns the (mod, ref) object sets of one instruction.
// exclude filters out specific instructions (a candidate's own runtime
// calls). Launches have no host-memory effect.
func (mr *ModRef) instrEffect(in *ir.Instr, exclude map[*ir.Instr]bool) (mod, ref ObjSet) {
	mod, ref = make(ObjSet), make(ObjSet)
	if exclude[in] {
		return
	}
	switch in.Op {
	case ir.OpLoad:
		ref.addAll(mr.PT.PTS(in.Args[0]))
	case ir.OpStore:
		mod.addAll(mr.PT.PTS(in.Args[0]))
	case ir.OpCall:
		if !in.Callee.Kernel {
			mod.addAll(mr.mod[in.Callee])
			ref.addAll(mr.ref[in.Callee])
		}
	case ir.OpIntrinsic:
		eff, ok := intrinsicEffects[in.Name]
		if !ok {
			return
		}
		for _, i := range eff.refArgs {
			if i < len(in.Args) {
				ref.addAll(mr.PT.PTS(in.Args[i]))
			}
		}
		for _, i := range eff.modArgs {
			if i < len(in.Args) {
				mod.addAll(mr.PT.PTS(in.Args[i]))
			}
		}
		if eff.refContents || eff.modContents {
			for o := range mr.PT.PTS(in.Args[0]) {
				inner := mr.PT.contents[o]
				if eff.refContents {
					ref.addAll(inner)
				}
				if eff.modContents {
					mod.addAll(inner)
				}
			}
		}
	}
	return
}

// Region is a promotion region: either a loop or a whole function body
// (§5.1: "A region is either a function or a loop body").
type Region struct {
	Loop *Loop    // set for loop regions
	Fn   *ir.Func // set for function regions
}

// Instrs calls fn for every instruction in the region.
func (r Region) Instrs(fn func(*ir.Instr)) {
	if r.Loop != nil {
		r.Loop.Instrs(fn)
		return
	}
	r.Fn.Instrs(fn)
}

// Contains reports whether in is inside the region.
func (r Region) Contains(in *ir.Instr) bool {
	if r.Loop != nil {
		return r.Loop.ContainsInstr(in)
	}
	return in.Block != nil && in.Block.Fn == r.Fn
}

// RegionEffect is the aggregate mod/ref of a region with some
// instructions excluded.
type RegionEffect struct {
	Mod, Ref ObjSet
}

// RegionEffect computes the region's host-memory effect, excluding the
// given instructions.
func (mr *ModRef) RegionEffect(r Region, exclude map[*ir.Instr]bool) RegionEffect {
	eff := RegionEffect{Mod: make(ObjSet), Ref: make(ObjSet)}
	r.Instrs(func(in *ir.Instr) {
		mod, ref := mr.instrEffect(in, exclude)
		eff.Mod.addAll(mod)
		eff.Ref.addAll(ref)
	})
	return eff
}

// Touches reports whether the effect reads or writes any object in s.
// Empty candidate sets are conservatively assumed to touch everything.
func (e RegionEffect) Touches(s ObjSet) bool {
	if len(s) == 0 {
		return true
	}
	return e.Mod.Intersects(s) || e.Ref.Intersects(s)
}

// Invariance answers whether a value is region-invariant: recomputable at
// region entry with the same result on every iteration/path. It is the
// pointsToChanges test of Algorithm 4 (a candidate pointer whose value
// chain is invariant points to the same allocation unit throughout the
// region).
type Invariance struct {
	mr     *ModRef
	region Region
	eff    RegionEffect // region effect with the candidate excluded
	memo   map[ir.Value]bool
}

// NewInvariance prepares invariance queries for a region; eff must be the
// region's effect (typically with the candidate's calls excluded).
func (mr *ModRef) NewInvariance(r Region, eff RegionEffect) *Invariance {
	return &Invariance{mr: mr, region: r, eff: eff, memo: make(map[ir.Value]bool)}
}

// Invariant reports whether v is region-invariant.
func (inv *Invariance) Invariant(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Const, *ir.GlobalRef:
		return true
	case *ir.Param:
		// Parameters are invariant in loop regions; for function regions
		// they are invariant in the sense of being available at entry —
		// and recomputable by the caller at the call site.
		return true
	case *ir.Instr:
		if got, ok := inv.memo[x]; ok {
			return got
		}
		inv.memo[x] = false // break cycles conservatively
		res := inv.instrInvariant(x)
		inv.memo[x] = res
		return res
	}
	return false
}

func (inv *Invariance) instrInvariant(x *ir.Instr) bool {
	if !inv.region.Contains(x) {
		return true
	}
	switch x.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpIToF, ir.OpFToI:
		for _, a := range x.Args {
			if !inv.Invariant(a) {
				return false
			}
		}
		return true
	case ir.OpLoad:
		// A load is invariant when its address is invariant and nothing in
		// the region may write the loaded unit.
		if !inv.Invariant(x.Args[0]) {
			return false
		}
		pts := inv.mr.PT.PTS(x.Args[0])
		if len(pts) == 0 {
			return false
		}
		return !inv.eff.Mod.Intersects(pts)
	case ir.OpIntrinsic:
		// Pure math is invariant over invariant inputs.
		switch x.Name {
		case "sqrt", "fabs", "exp", "log", "pow", "sin", "cos",
			"floor", "ceil", "iabs", "imin", "imax", "fmin", "fmax":
			for _, a := range x.Args {
				if !inv.Invariant(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}
