package mappromo

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// promoteLoops performs one round of loop-region promotion in f,
// innermost loops first so maps climb one level per convergence round.
func (p *promoter) promoteLoops(f *ir.Func) bool {
	f.Renumber()
	loops, fwd := p.loops[f], p.fwds[f]
	if fwd == nil {
		// Innermost first: deeper loops later in a postorder walk.
		loops = append([]*analysis.Loop(nil), analysis.FindLoops(f, analysis.NewDominators(f)).All...)
		for i := range loops {
			for j := i + 1; j < len(loops); j++ {
				if loops[j].Depth > loops[i].Depth {
					loops[i], loops[j] = loops[j], loops[i]
				}
			}
		}
		fwd = analysis.SpillForwarding(f)
		p.loops[f], p.fwds[f] = loops, fwd
	}
	for _, loop := range loops {
		region := analysis.Region{Loop: loop}
		var hoist []*candidate
		for _, c := range findCandidates(region, fwd) {
			regionID := "loop:" + f.Name + "/" + loop.Header.Name + "|" + c.key
			// A candidate with no interior device-to-host transfers left
			// was already promoted (hoisting again would only stack
			// redundant balanced calls); judge still reports a mixed one.
			if p.done[regionID] || len(c.maps) == 0 || !c.mixed && len(c.unmaps) == 0 {
				continue
			}
			rep, reason, msg := p.judge(c, region, fwd)
			if rep == nil {
				p.recordMiss(regionID, f, c, reason, "cannot hoist map out of loop "+loop.Header.Name+": "+msg)
				continue
			}
			c.rep = rep
			hoist = append(hoist, c)
			p.done[regionID] = true
		}
		if len(hoist) == 0 {
			continue
		}
		pre := analysis.EnsurePreheader(f, loop)
		exits := analysis.SplitExitEdges(f, loop)
		for _, c := range hoist {
			p.rc.Emit(remarks.Remark{
				Pass: "mappromo", Kind: remarks.Applied,
				Line: int(c.line()), Function: f.Name,
				Unit: unitSet(c, p.pt).Labels(),
				Message: fmt.Sprintf("map hoisted above loop %s; %d interior device-to-host transfer(s) deleted",
					loop.Header.Name, len(c.unmaps)),
			})
			p.applyLoopPromotion(c, region, pre, exits)
			p.res.Promotions++
			p.res.LoopPromotions++
		}
		f.Renumber()
		// CFG changed: the next round finds the loops again.
		delete(p.fwds, f)
		return true
	}
	return false
}

// judge applies Algorithm 4's tests to candidate c of region r. It
// returns the pointer to hoist, or nil and why not; loop and function
// regions word the same rejections in their own terms.
func (p *promoter) judge(c *candidate, r analysis.Region, fwd map[*ir.Instr]ir.Value) (ir.Value, remarks.Reason, string) {
	body, span, inside := "region", "iterations", "inside the loop"
	if r.Fn != nil {
		body, span, inside = "function", "the function body", "in the function"
	}
	if c.mixed {
		return nil, remarks.ReasonMixedIndirection,
			"pointer is mapped both as a scalar unit and as a pointer array in the " + body
	}
	eff := p.mr.RegionEffect(r, c.calls())
	inv := p.mr.NewInvariance(r, eff)
	// pointsToChanges: the pointer must refer to one allocation unit
	// throughout the region. A varying pointer whose *base* is invariant
	// still qualifies — peel the arithmetic.
	rep := stripToUnitBase(analysis.Resolve(c.rep, fwd), fwd, p.pt, inv)
	switch {
	case !inv.Invariant(rep):
		return nil, remarks.ReasonLoopVariantBase, "pointer may name different allocation units across " + span
	case !cloneableChain(rep, r):
		return nil, remarks.ReasonEscaping, "pointer computation cannot be recomputed outside the " + body
	case r.Fn != nil && !callerComputable(rep, r.Fn):
		// Callers must recompute the pointer: its chain may only bottom
		// out in f's parameters, globals, and constants.
		return nil, remarks.ReasonEscaping, "pointer depends on function-local state call sites cannot recompute"
	case len(p.pt.PTS(c.rep)) == 0: // so unitSet is empty too
		return nil, remarks.ReasonUnknownPointsTo, "no allocation unit is known for the pointer"
	case eff.Touches(unitSet(c, p.pt)):
		// modOrRef: no CPU access to the governed units inside the region
		// (other than the candidate's own calls).
		return nil, remarks.ReasonAliasing, "CPU code " + inside + " may read or write the governed unit(s)"
	}
	return rep, remarks.ReasonNone, ""
}

// applyLoopPromotion performs Algorithm 4's rewrites for one candidate.
func (p *promoter) applyLoopPromotion(c *candidate, region analysis.Region, pre *ir.Block, exits []*ir.Block) {
	// copy(above(region), candidate.map)
	ptrAbove := p.cloneChain(c.rep, region, pre.Terminator(), make(map[ir.Value]ir.Value), "hoisted by map promotion")
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
func (p *promoter) promoteFunction(f *ir.Func) bool {
	if f.Name == "main" || f.Name == "__cgcm_init" {
		return false
	}
	sites := p.cg.Callers[f]
	if len(sites) == 0 {
		return false
	}
	// Whole-function blockers: record them against every candidate the
	// function region holds, so the rejection is explained per pointer.
	blockReason := remarks.ReasonNone
	blockMsg := ""
	if p.cg.Recursive(f) {
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
		if p.pending != nil {
			for _, c := range findCandidates(region, fwd) {
				if len(c.maps) == 0 || len(c.unmaps) == 0 {
					continue
				}
				p.recordMiss("fn:"+f.Name+"|"+c.key, f, c, blockReason, "cannot hoist map into callers: "+blockMsg)
			}
		}
		return false
	}
	changed := false
	for _, c := range findCandidates(region, fwd) {
		regionID := "fn:" + f.Name + "|" + c.key
		if p.done[regionID] || len(c.maps) == 0 || len(c.unmaps) == 0 {
			continue
		}
		rep, reason, msg := p.judge(c, region, fwd)
		if rep == nil {
			p.recordMiss(regionID, f, c, reason, "cannot hoist map into callers of "+f.Name+": "+msg)
			continue
		}
		p.rc.Emit(remarks.Remark{
			Pass: "mappromo", Kind: remarks.Applied,
			Line: int(c.line()), Function: f.Name,
			Unit: unitSet(c, p.pt).Labels(),
			Message: fmt.Sprintf("map/unmap hoisted out of %s into its %d call site(s)",
				f.Name, len(sites)),
		})
		for _, site := range sites {
			p.applyFuncPromotion(c, rep, region, site)
		}
		for _, um := range c.unmaps {
			um.Block.Remove(um)
		}
		p.done[regionID] = true
		p.res.Promotions++
		p.res.FuncPromotions++
		changed = true
	}
	if changed {
		p.m.Renumber()
	}
	return changed
}

// callerComputable checks that v's def chain bottoms out in values a call
// site can supply: f's parameters, globals, and constants.
func callerComputable(v ir.Value, f *ir.Func) bool {
	switch x := v.(type) {
	case *ir.Const, *ir.GlobalRef:
		return true
	case *ir.Param:
		return x.Fn == f
	case *ir.Instr:
		for _, a := range x.Args {
			if !callerComputable(a, f) {
				return false
			}
		}
		return x.Op != ir.OpAlloca
	}
	return false
}

// applyFuncPromotion inserts the hoisted calls around one call site,
// rewriting f's parameters to the site's actual arguments.
func (p *promoter) applyFuncPromotion(c *candidate, rep ir.Value, region analysis.Region, site analysis.CallSite) {
	blk := site.Instr.Block
	remap := make(map[ir.Value]ir.Value)
	for i, param := range site.Instr.Callee.Params {
		if i < len(site.Instr.Args) {
			remap[param] = site.Instr.Args[i]
		}
	}
	ptr := p.cloneChain(rep, region, site.Instr, remap, "hoisted by map promotion (function region)")
	blk.InsertBefore(c.call(ir.RtMap, ptr, "map promotion: hoisted to caller"), site.Instr)
	um := c.call(ir.RtUnmap, ptr, "map promotion: sunk to caller")
	blk.InsertAfter(um, site.Instr)
	blk.InsertAfter(c.call(ir.RtRelease, ptr, "map promotion: balancing release"), um)
}
