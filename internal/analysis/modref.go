package analysis

import "cgcm/internal/ir"

// ModRef computes, per CPU function, the abstract objects the function
// (and its CPU-side callees, transitively) may read and write. Kernel
// bodies are excluded: GPU code touches device copies, never the host
// allocation units these sets describe.
type ModRef struct {
	PT *PointsTo
	CG *CallGraph

	mod map[*ir.Func]ObjSet
	ref map[*ir.Func]ObjSet
}

// BuildModRef computes the summaries of the CPU functions: one pass over
// each for its own loads, stores and intrinsics, then the callees' sets
// flow to their callers along the call graph until nothing grows. Union
// is monotone, so this reaches the same least fixed point as
// re-evaluating every instruction of the module until nothing changes.
// Kernels get none: a launch has no host effect and no call targets a
// kernel, so no host query reaches a kernel's summary.
func BuildModRef(m *ir.Module, pt *PointsTo, cg *CallGraph) *ModRef {
	mr := &ModRef{
		PT: pt, CG: cg,
		mod: make(map[*ir.Func]ObjSet, len(m.Funcs)),
		ref: make(map[*ir.Func]ObjSet, len(m.Funcs)),
	}
	// work holds the CPU functions whose summary grew since their
	// callers last took it.
	var work []*ir.Func
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		mod, ref := make(ObjSet), make(ObjSet)
		mr.mod[f], mr.ref[f] = mod, ref
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpCall {
				mr.addEffect(in, mod, ref)
			}
		})
		work = append(work, f)
	}
	for len(work) > 0 {
		callee := work[len(work)-1]
		work = work[:len(work)-1]
		for _, site := range cg.Callers[callee] {
			if site.Instr.Op != ir.OpCall || site.Caller.Kernel {
				continue
			}
			grewMod := mr.mod[site.Caller].addAll(mr.mod[callee])
			grewRef := mr.ref[site.Caller].addAll(mr.ref[callee])
			if grewMod || grewRef {
				work = append(work, site.Caller)
			}
		}
	}
	return mr
}

// FuncMod returns the summary mod set of f.
func (mr *ModRef) FuncMod(f *ir.Func) ObjSet { return mr.summary(f).Mod }

// FuncRef returns the summary ref set of f.
func (mr *ModRef) FuncRef(f *ir.Func) ObjSet { return mr.summary(f).Ref }

// summary is f's summary; a kernel's, which BuildModRef does not keep,
// is its body's effect.
func (mr *ModRef) summary(f *ir.Func) RegionEffect {
	if f.Kernel {
		return mr.RegionEffect(Region{Fn: f}, nil)
	}
	return RegionEffect{Mod: mr.mod[f], Ref: mr.ref[f]}
}

// addEffect adds the objects one instruction may write and read to mod
// and ref. Launches have no host-memory effect.
func (mr *ModRef) addEffect(in *ir.Instr, mod, ref ObjSet) {
	switch in.Op {
	case ir.OpLoad:
		mr.PT.objs(in.Args[0]).addTo(ref)
	case ir.OpStore:
		mr.PT.objs(in.Args[0]).addTo(mod)
	case ir.OpCall:
		if !in.Callee.Kernel {
			mod.addAll(mr.mod[in.Callee])
			ref.addAll(mr.ref[in.Callee])
		}
	case ir.OpIntrinsic:
		row := in.Intrinsic()
		if row == nil {
			return
		}
		for _, i := range row.Ref {
			if i < len(in.Args) {
				mr.PT.objs(in.Args[i]).addTo(ref)
			}
		}
		for _, i := range row.Mod {
			if i < len(in.Args) {
				mr.PT.objs(in.Args[i]).addTo(mod)
			}
		}
	}
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
// given instructions (a candidate's own runtime calls).
func (mr *ModRef) RegionEffect(r Region, exclude map[*ir.Instr]bool) RegionEffect {
	eff := RegionEffect{Mod: make(ObjSet), Ref: make(ObjSet)}
	r.Instrs(func(in *ir.Instr) {
		if !exclude[in] {
			mr.addEffect(in, eff.Mod, eff.Ref)
		}
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
	switch {
	case x.Pure():
		// Arithmetic and math builtins are invariant over invariant inputs.
		for _, a := range x.Args {
			if !inv.Invariant(a) {
				return false
			}
		}
		return true
	case x.Op == ir.OpLoad:
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
	}
	return false
}
