package mappromo

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// promoteLoops performs one round of loop-region promotion in f,
// innermost loops first so maps climb one level per convergence round.
func promoteLoops(m *ir.Module, f *ir.Func, pt *analysis.PointsTo, mr *analysis.ModRef, res *Result, done map[string]bool, rc *remarks.Collector, pending map[string]remarks.Remark) (bool, error) {
	f.Renumber()
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)
	fwd := analysis.SpillForwarding(f)

	// Innermost first: deeper loops later in a postorder walk.
	loops := append([]*analysis.Loop(nil), forest.All...)
	sort := func() {
		for i := 0; i < len(loops); i++ {
			for j := i + 1; j < len(loops); j++ {
				if loops[j].Depth > loops[i].Depth {
					loops[i], loops[j] = loops[j], loops[i]
				}
			}
		}
	}
	sort()

	for _, loop := range loops {
		region := analysis.Region{Loop: loop}
		var hoist []*candidate
		for _, c := range findCandidates(region, fwd) {
			regionID := "loop:" + f.Name + "/" + loop.Header.Name + "|" + c.key
			if done[regionID] || len(c.maps) == 0 {
				continue
			}
			miss := func(reason remarks.Reason, msg string) {
				recordMiss(pending, regionID, remarks.Remark{
					Reason: reason, Line: int(c.line()), Function: f.Name,
					Unit:    unitSet(c, pt).Labels(),
					Message: fmt.Sprintf("cannot hoist map out of loop %s: %s", loop.Header.Name, msg),
				})
			}
			if c.mixed {
				miss(remarks.ReasonMixedIndirection,
					"pointer is mapped both as a scalar unit and as a pointer array in the region")
				continue
			}
			// No interior device-to-host transfers left: this candidate
			// was already promoted (hoisting again would only stack
			// redundant balanced calls).
			if len(c.unmaps) == 0 {
				continue
			}
			exclude := c.calls()
			eff := mr.RegionEffect(region, exclude)
			inv := mr.NewInvariance(region, eff)
			rep := analysis.Resolve(c.rep, fwd)
			// pointsToChanges: the pointer must refer to one allocation
			// unit throughout the region. A varying pointer whose *base*
			// is invariant still qualifies — peel the arithmetic.
			rep = stripToUnitBase(rep, fwd, pt, inv)
			if !inv.Invariant(rep) {
				miss(remarks.ReasonLoopVariantBase,
					"pointer may name different allocation units across iterations")
				continue
			}
			if !cloneableChain(rep, region) {
				miss(remarks.ReasonEscaping,
					"pointer computation cannot be recomputed outside the region")
				continue
			}
			// modOrRef: no CPU access to the governed units inside the
			// region (other than the candidate's own calls).
			units := unitSet(c, pt)
			if len(units) == 0 {
				miss(remarks.ReasonUnknownPointsTo,
					"no allocation unit is known for the pointer")
				continue
			}
			if eff.Touches(units) {
				miss(remarks.ReasonAliasing,
					"CPU code inside the loop may read or write the governed unit(s)")
				continue
			}
			c.rep = rep
			hoist = append(hoist, c)
			done[regionID] = true
		}
		if len(hoist) == 0 {
			continue
		}
		pre := analysis.EnsurePreheader(f, loop)
		exits := analysis.SplitExitEdges(f, loop)
		for _, c := range hoist {
			rc.Emit(remarks.Remark{
				Pass: "mappromo", Kind: remarks.Applied,
				Line: int(c.line()), Function: f.Name,
				Unit: unitSet(c, pt).Labels(),
				Message: fmt.Sprintf("map hoisted above loop %s; %d interior device-to-host transfer(s) deleted",
					loop.Header.Name, len(c.unmaps)),
			})
			applyLoopPromotion(c, region, pre, exits)
			res.Promotions++
			res.LoopPromotions++
		}
		f.Renumber()
		// CFG changed: let the caller rebuild analyses.
		return true, nil
	}
	return false, nil
}

// applyLoopPromotion performs Algorithm 4's rewrites for one candidate.
func applyLoopPromotion(c *candidate, region analysis.Region, pre *ir.Block, exits []*ir.Block) {
	// copy(above(region), candidate.map)
	remap := make(map[ir.Value]ir.Value)
	ptrAbove := cloneChainInto(c.rep, region, pre, pre.Terminator(), remap)
	pre.InsertBefore(c.call(ir.RtMap, ptrAbove, "map promotion: hoisted map"), pre.Terminator())

	// copy(below(region), candidate.unmap); copy(below, candidate.release)
	for _, ex := range exits {
		t := ex.Terminator()
		ex.InsertBefore(c.call(ir.RtUnmap, ptrAbove, "map promotion: sunk unmap"), t)
		ex.InsertBefore(c.call(ir.RtRelease, ptrAbove, "map promotion: balancing release"), t)
	}

	// deleteAll(candidate.DtoH): interior unmaps vanish.
	for _, um := range c.unmaps {
		um.Block.Remove(um)
	}
}

// promoteFunction hoists whole-function candidates into every caller
// ("for a function, the compiler finds all the function's parents in the
// call graph and inserts the necessary calls before and after the call
// instructions in the parent functions").
func promoteFunction(m *ir.Module, f *ir.Func, pt *analysis.PointsTo, cg *analysis.CallGraph, mr *analysis.ModRef, res *Result, done map[string]bool, rc *remarks.Collector, pending map[string]remarks.Remark) (bool, error) {
	if f.Name == "main" || f.Name == "__cgcm_init" {
		return false, nil
	}
	sites := cg.Callers[f]
	if len(sites) == 0 {
		return false, nil
	}
	// Whole-function blockers: record them against every candidate the
	// function region holds, so the rejection is explained per pointer.
	blockReason := remarks.ReasonNone
	blockMsg := ""
	if cg.Recursive(f) {
		blockReason = remarks.ReasonRecursive
		blockMsg = f.Name + " is recursive, so hoisted calls in callers would not balance"
	} else {
		for _, s := range sites {
			if s.Caller.Kernel {
				blockReason = remarks.ReasonKernelCaller
				blockMsg = f.Name + " is called from GPU code, which cannot issue runtime-library calls"
				break
			}
		}
	}
	fwd := analysis.SpillForwarding(f)
	region := analysis.Region{Fn: f}
	if blockReason != remarks.ReasonNone {
		if pending != nil {
			for _, c := range findCandidates(region, fwd) {
				if len(c.maps) == 0 || len(c.unmaps) == 0 {
					continue
				}
				recordMiss(pending, "fn:"+f.Name+"|"+c.key, remarks.Remark{
					Reason: blockReason, Line: int(c.line()), Function: f.Name,
					Unit:    unitSet(c, pt).Labels(),
					Message: "cannot hoist map into callers: " + blockMsg,
				})
			}
		}
		return false, nil
	}
	changed := false
	for _, c := range findCandidates(region, fwd) {
		regionID := "fn:" + f.Name + "|" + c.key
		if done[regionID] || len(c.maps) == 0 || len(c.unmaps) == 0 {
			continue
		}
		miss := func(reason remarks.Reason, msg string) {
			recordMiss(pending, regionID, remarks.Remark{
				Reason: reason, Line: int(c.line()), Function: f.Name,
				Unit:    unitSet(c, pt).Labels(),
				Message: "cannot hoist map into callers of " + f.Name + ": " + msg,
			})
		}
		if c.mixed {
			miss(remarks.ReasonMixedIndirection,
				"pointer is mapped both as a scalar unit and as a pointer array in the function")
			continue
		}
		exclude := c.calls()
		eff := mr.RegionEffect(region, exclude)
		inv := mr.NewInvariance(region, eff)
		rep := analysis.Resolve(c.rep, fwd)
		rep = stripToUnitBase(rep, fwd, pt, inv)
		if !inv.Invariant(rep) {
			miss(remarks.ReasonLoopVariantBase,
				"pointer may name different allocation units across the function body")
			continue
		}
		if !cloneableChain(rep, region) {
			miss(remarks.ReasonEscaping,
				"pointer computation cannot be recomputed outside the function")
			continue
		}
		// The pointer must be recomputable by callers: its chain may only
		// bottom out in f's parameters, globals, and constants.
		if !callerComputable(rep, f) {
			miss(remarks.ReasonEscaping,
				"pointer depends on function-local state call sites cannot recompute")
			continue
		}
		units := unitSet(c, pt)
		if len(units) == 0 {
			miss(remarks.ReasonUnknownPointsTo,
				"no allocation unit is known for the pointer")
			continue
		}
		if eff.Touches(units) {
			miss(remarks.ReasonAliasing,
				"CPU code in the function may read or write the governed unit(s)")
			continue
		}
		rc.Emit(remarks.Remark{
			Pass: "mappromo", Kind: remarks.Applied,
			Line: int(c.line()), Function: f.Name,
			Unit: unitSet(c, pt).Labels(),
			Message: fmt.Sprintf("map/unmap hoisted out of %s into its %d call site(s)",
				f.Name, len(sites)),
		})
		for _, site := range sites {
			applyFuncPromotion(c, rep, region, site)
		}
		for _, um := range c.unmaps {
			um.Block.Remove(um)
		}
		done[regionID] = true
		res.Promotions++
		res.FuncPromotions++
		changed = true
	}
	if changed {
		m.Renumber()
	}
	return changed, nil
}

// callerComputable checks that v's def chain bottoms out in values a call
// site can supply: f's parameters, globals, and constants.
func callerComputable(v ir.Value, f *ir.Func) bool {
	var check func(v ir.Value) bool
	check = func(v ir.Value) bool {
		switch x := v.(type) {
		case *ir.Const, *ir.GlobalRef:
			return true
		case *ir.Param:
			return x.Fn == f
		case *ir.Instr:
			for _, a := range x.Args {
				if !check(a) {
					return false
				}
			}
			return x.Op != ir.OpAlloca
		}
		return false
	}
	return check(v)
}

// applyFuncPromotion inserts the hoisted calls around one call site,
// rewriting f's parameters to the site's actual arguments.
func applyFuncPromotion(c *candidate, rep ir.Value, region analysis.Region, site analysis.CallSite) {
	blk := site.Instr.Block
	remap := make(map[ir.Value]ir.Value)
	for i, p := range site.Instr.Callee.Params {
		if i < len(site.Instr.Args) {
			remap[p] = site.Instr.Args[i]
		}
	}
	ptr := cloneChainIntoWithParams(rep, region, blk, site.Instr, remap)
	blk.InsertBefore(c.call(ir.RtMap, ptr, "map promotion: hoisted to caller"), site.Instr)
	um := c.call(ir.RtUnmap, ptr, "map promotion: sunk to caller")
	blk.InsertAfter(um, site.Instr)
	blk.InsertAfter(c.call(ir.RtRelease, ptr, "map promotion: balancing release"), um)
}

// cloneChainIntoWithParams is cloneChainInto but with a pre-seeded remap
// (parameters -> call-site arguments); every chain instruction must be
// cloned because it belongs to the callee.
func cloneChainIntoWithParams(v ir.Value, region analysis.Region, blk *ir.Block, pos *ir.Instr, remap map[ir.Value]ir.Value) ir.Value {
	if got, ok := remap[v]; ok {
		return got
	}
	in, ok := v.(*ir.Instr)
	if !ok {
		return v
	}
	c := ir.CloneInstr(in, nil)
	for i, a := range c.Args {
		c.Args[i] = cloneChainIntoWithParams(a, region, blk, pos, remap)
	}
	c.Comment = "hoisted by map promotion (function region)"
	blk.InsertBefore(c, pos)
	remap[v] = c
	return c
}
