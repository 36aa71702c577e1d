// Package mappromo implements map promotion (§5.1, Algorithm 4), CGCM's
// central communication optimization.
//
// A promotion candidate captures all run-time library calls in a region
// (a loop body or a whole function) that name the same pointer. When the
// pass can prove the pointer refers to the same allocation unit
// throughout the region (pointsToChanges) and that CPU code in the region
// never reads or writes that unit (modOrRef), it:
//
//   - copies the map above the region (loop preheader, or before every
//     call site for function regions),
//   - copies the unmap and release below the region (loop exits, or after
//     every call site),
//   - deletes the device-to-host transfers inside the region (the
//     interior unmaps).
//
// Interior maps remain for pointer translation — with the reference count
// held above zero by the hoisted map, they no longer copy anything. The
// pass iterates to convergence, so maps gradually climb out of loop nests
// and up the call graph. Recursive functions are not eligible.
package mappromo

import (
	"fmt"
	"strings"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// Result reports pass activity.
type Result struct {
	// Promotions counts performed hoists (loop and function regions).
	Promotions int
	// LoopPromotions and FuncPromotions break Promotions down.
	LoopPromotions int
	FuncPromotions int
	// Iterations is how many convergence rounds ran.
	Iterations int
}

const maxIterations = 12

// Run iterates map promotion to convergence over the module. Pass
// activity is reported as optimization remarks through rc (which may be
// nil).
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	res := &Result{}
	done := make(map[string]bool) // idempotence: region+pointer keys already hoisted
	// Rejections are deferred, keyed by the same region+pointer identity:
	// a candidate blocked in one convergence round may be promoted in a
	// later one (e.g. after another hoist removes the aliasing access),
	// and only candidates that never succeed become Missed remarks.
	var pending map[string]remarks.Remark
	if rc != nil {
		pending = make(map[string]remarks.Remark)
	}
	for res.Iterations < maxIterations {
		res.Iterations++
		changed, err := runOnce(m, res, done, rc, pending)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	for id, r := range pending {
		if !done[id] {
			rc.Emit(r)
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("mappromo produced invalid IR: %w", err)
	}
	return res, nil
}

// recordMiss stores the first rejection seen for a region+pointer key;
// Run emits it only if no later round promotes the candidate.
func recordMiss(pending map[string]remarks.Remark, id string, r remarks.Remark) {
	if pending == nil {
		return
	}
	if _, ok := pending[id]; !ok {
		r.Pass = "mappromo"
		r.Kind = remarks.Missed
		pending[id] = r
	}
}

func runOnce(m *ir.Module, res *Result, done map[string]bool, rc *remarks.Collector, pending map[string]remarks.Remark) (bool, error) {
	pt := analysis.BuildPointsTo(m)
	cg := analysis.BuildCallGraph(m)
	mr := analysis.BuildModRef(m, pt, cg)

	changed := false
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		c, err := promoteLoops(m, f, pt, mr, res, done, rc, pending)
		if err != nil {
			return false, err
		}
		changed = changed || c
	}
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		c, err := promoteFunction(m, f, pt, cg, mr, res, done, rc, pending)
		if err != nil {
			return false, err
		}
		changed = changed || c
	}
	return changed, nil
}

// candidate groups the region's runtime calls on one pointer.
type candidate struct {
	key      string
	rep      ir.Value // representative pointer value
	isArray  bool
	mixed    bool
	maps     []*ir.Instr
	unmaps   []*ir.Instr
	releases []*ir.Instr
}

// line is the source line promoted calls inherit: the line of the first
// original map call in the candidate, so the profiler keeps charging the
// communication to the launch site it was inserted for.
func (c *candidate) line() int32 {
	for _, in := range c.maps {
		if in.Line != 0 {
			return in.Line
		}
	}
	return 0
}

// call builds a promoted runtime-library call: op applied to ptr, the
// candidate's pointer as computed outside the region.
func (c *candidate) call(op ir.RuntimeOp, ptr ir.Value, comment string) *ir.Instr {
	return &ir.Instr{Op: ir.OpIntrinsic, Name: ir.RuntimeVerb{Op: op, Array: c.isArray}.Name(),
		Args: []ir.Value{ptr}, Comment: comment, Line: c.line()}
}

func (c *candidate) calls() map[*ir.Instr]bool {
	s := make(map[*ir.Instr]bool)
	for _, in := range c.maps {
		s[in] = true
	}
	for _, in := range c.unmaps {
		s[in] = true
	}
	for _, in := range c.releases {
		s[in] = true
	}
	return s
}

// findCandidates groups the cgcm.* calls inside a region by canonical
// pointer identity.
func findCandidates(r analysis.Region, fwd map[*ir.Instr]ir.Value) []*candidate {
	byKey := make(map[string]*candidate)
	var order []string
	r.Instrs(func(in *ir.Instr) {
		// Promotion runs before the overlap pass, on synchronous calls.
		verb, ok := in.RuntimeCall()
		if !ok || verb.Async {
			return
		}
		key, ok := canonKey(in.Args[0], fwd)
		if !ok {
			return
		}
		c := byKey[key]
		if c == nil {
			c = &candidate{key: key, rep: in.Args[0]}
			byKey[key] = c
			order = append(order, key)
		}
		switch verb.Op {
		case ir.RtMap:
			if len(c.maps)+len(c.unmaps)+len(c.releases) == 0 {
				c.isArray = verb.Array
			} else if c.isArray != verb.Array {
				c.mixed = true
			}
			c.maps = append(c.maps, in)
		case ir.RtUnmap:
			if verb.Array != c.isArray && len(c.maps) > 0 {
				c.mixed = true
			}
			c.unmaps = append(c.unmaps, in)
		case ir.RtRelease:
			c.releases = append(c.releases, in)
		}
	})
	out := make([]*candidate, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}

// canonKey builds a structural identity for a pointer value, resolving
// loads of single-store spill slots to the stored value so that distinct
// loads of the same variable unify.
func canonKey(v ir.Value, fwd map[*ir.Instr]ir.Value) (string, bool) {
	switch x := analysis.Resolve(v, fwd).(type) {
	case *ir.Const:
		return fmt.Sprintf("c:%x:%v", x.Bits, x.Float), true
	case *ir.Param:
		return fmt.Sprintf("p:%s@%s", x.Name, x.Fn.Name), true
	case *ir.GlobalRef:
		return "g:" + x.Global.Name, true
	case *ir.Instr:
		if x.Op == ir.OpLoad {
			ak, ok := canonKey(x.Args[0], fwd)
			if !ok {
				return "", false
			}
			return fmt.Sprintf("(ld%d %s)", x.Size, ak), true
		}
		if x.Op == ir.OpAlloca {
			return fmt.Sprintf("a:%p", x), true
		}
		if x.Op == ir.OpCall || x.Op == ir.OpIntrinsic || x.Op == ir.OpLaunch {
			// Distinct calls are distinct values (e.g. malloc results),
			// but the same call instruction is a stable identity.
			return fmt.Sprintf("call:%p", x), true
		}
		parts := []string{fmt.Sprintf("%s/%v", x.Op, x.Float)}
		for _, a := range x.Args {
			k, ok := canonKey(a, fwd)
			if !ok {
				return "", false
			}
			parts = append(parts, k)
		}
		return "(" + strings.Join(parts, " ") + ")", true
	}
	return "", false
}

// stripToUnitBase peels region-variant pointer arithmetic off a
// candidate pointer. C99 pointer arithmetic cannot leave an allocation
// unit, so `base + varyingOffset` names the same unit as `base`; mapping
// the base above the region is therefore equivalent to mapping the full
// pointer (the paper's map promotion asks only that the pointer refer to
// the same allocation unit throughout the region, not that its value be
// constant). Each peel requires the offset side to be a provable
// non-pointer (empty points-to set) and the base side to share the
// pointer's units.
func stripToUnitBase(v ir.Value, fwd map[*ir.Instr]ir.Value, pt *analysis.PointsTo, inv *analysis.Invariance) ir.Value {
	for {
		if inv.Invariant(v) {
			return v
		}
		in, ok := v.(*ir.Instr)
		if !ok || (in.Op != ir.OpAdd && in.Op != ir.OpSub) {
			return v
		}
		if len(pt.PTS(in.Args[1])) != 0 {
			return v // offset side might itself be the pointer
		}
		base := analysis.Resolve(in.Args[0], fwd)
		bpts, vpts := pt.PTS(base), pt.PTS(in)
		if len(bpts) == 0 || len(vpts) == 0 || !bpts.Intersects(vpts) {
			return v
		}
		v = base
	}
}

// unitSet returns the allocation units a candidate governs: the pointer's
// own units plus, for array candidates, the element units.
func unitSet(c *candidate, pt *analysis.PointsTo) analysis.ObjSet {
	s := make(analysis.ObjSet)
	for o := range pt.PTS(c.rep) {
		s[o] = true
	}
	if c.isArray {
		for o := range pt.Contents(pt.PTS(c.rep)) {
			s[o] = true
		}
	}
	return s
}

// cloneableChain verifies the region-internal part of a value's def chain
// can be copied out of the region (pure ops and loads only).
func cloneableChain(v ir.Value, r analysis.Region) bool {
	for _, in := range ir.DefChain(v) {
		if !r.Contains(in) {
			continue
		}
		if in.Op != ir.OpLoad && !in.Pure() {
			return false
		}
	}
	return true
}

// cloneChainInto copies the region-internal part of v's def chain before
// pos in block blk, returning the value usable at that point.
func cloneChainInto(v ir.Value, r analysis.Region, blk *ir.Block, pos *ir.Instr, remap map[ir.Value]ir.Value) ir.Value {
	if got, ok := remap[v]; ok {
		return got
	}
	in, ok := v.(*ir.Instr)
	if !ok || !r.Contains(in) {
		return v
	}
	c := ir.CloneInstr(in, nil)
	for i, a := range c.Args {
		c.Args[i] = cloneChainInto(a, r, blk, pos, remap)
	}
	c.Comment = "hoisted by map promotion"
	blk.InsertBefore(c, pos)
	remap[v] = c
	return c
}
