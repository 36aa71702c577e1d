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
	"maps"
	"slices"
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

// Run iterates map promotion to convergence over the module.
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	return RunWith(m, analysis.BuildPointsTo(m), rc)
}

// RunWith is Run over pt, the module's points-to solution. Pass activity
// is reported as optimization remarks through rc (which may be nil). The
// call graph and mod/ref are built once: a promotion adds no flow they
// or pt describe, and the values it clones get their points-to sets when
// the round that made them ends (DESIGN.md, "Map promotion: one build
// per run").
func RunWith(m *ir.Module, pt *analysis.PointsTo, rc *remarks.Collector) (*Result, error) {
	p := newPromoter(m, rc)
	p.pt = pt
	p.cg = analysis.BuildCallGraph(m)
	p.mr = analysis.BuildModRef(m, p.pt, p.cg)
	for p.res.Iterations < maxIterations && p.round() {
		p.derive()
	}
	return p.finish()
}

// promoter is one run's state: the module analyses the rounds read and
// what the rounds so far have done.
type promoter struct {
	m   *ir.Module
	pt  *analysis.PointsTo
	cg  *analysis.CallGraph
	mr  *analysis.ModRef
	rc  *remarks.Collector
	res Result
	// done holds the region+pointer keys already hoisted (idempotence).
	done map[string]bool
	// Rejections are deferred, keyed by the same region+pointer identity:
	// a candidate blocked in one convergence round may be promoted in a
	// later one (e.g. after another hoist removes the aliasing access),
	// and only candidates that never succeed become Missed remarks.
	pending map[string]remarks.Remark
	// clones are the values the current round copied out of regions, in
	// the order made (operands first); derive gives them their sets.
	clones []*ir.Instr
	// changed lists the functions the latest round rewrote.
	changed []*ir.Func
	// loops (innermost first) and fwds hold each CPU function's loops and
	// spill forwarding until a loop promotion rewrites it.
	loops map[*ir.Func][]*analysis.Loop
	fwds  map[*ir.Func]map[*ir.Instr]ir.Value
}

func newPromoter(m *ir.Module, rc *remarks.Collector) *promoter {
	p := &promoter{m: m, rc: rc, done: make(map[string]bool),
		loops: make(map[*ir.Func][]*analysis.Loop), fwds: make(map[*ir.Func]map[*ir.Instr]ir.Value)}
	if rc != nil {
		p.pending = make(map[string]remarks.Remark)
	}
	return p
}

// round hoists, in every CPU function, the candidates of one loop,
// innermost first, then those of every function region, and reports
// whether anything changed.
func (p *promoter) round() bool {
	p.res.Iterations++
	p.changed = p.changed[:0]
	for _, f := range p.m.Funcs {
		if !f.Kernel && p.promoteLoops(f) {
			p.changed = append(p.changed, f)
		}
	}
	for _, f := range p.m.Funcs {
		if !f.Kernel && p.promoteFunction(f) && !slices.Contains(p.changed, f) {
			p.changed = append(p.changed, f)
		}
	}
	return len(p.changed) > 0
}

// derive gives the round's clones the points-to sets a rebuild would:
// each is computed from its operands, which is what the solver does
// with a value nothing else flows into.
func (p *promoter) derive() {
	for _, in := range p.clones {
		p.pt.Derive(in)
	}
	p.clones = p.clones[:0]
}

// finish emits the rejections no round overturned, and, when the last
// round still changed something, says where the round limit left maps
// inside loops.
func (p *promoter) finish() (*Result, error) {
	for id, r := range p.pending {
		if !p.done[id] {
			p.rc.Emit(r)
		}
	}
	if p.rc != nil && p.res.Iterations == maxIterations {
		for _, f := range p.changed {
			p.rc.Emit(p.roundLimit(f))
		}
	}
	p.m.Renumber()
	if err := p.m.Verify(); err != nil {
		return nil, fmt.Errorf("mappromo produced invalid IR: %w", err)
	}
	return &p.res, nil
}

// roundLimit is the Missed remark for f when the last round the limit
// allows changed it: the units whose maps f still holds in loops, with
// interior transfers left, are the ones a later round would examine.
func (p *promoter) roundLimit(f *ir.Func) remarks.Remark {
	fwd := analysis.SpillForwarding(f)
	units, line := make(analysis.ObjSet), int32(0)
	for _, loop := range analysis.FindLoops(f, analysis.NewDominators(f)).All {
		for _, c := range findCandidates(analysis.Region{Loop: loop}, fwd) {
			if len(c.maps) > 0 && len(c.unmaps) > 0 {
				maps.Copy(units, unitSet(c, p.pt))
				if line == 0 {
					line = c.line()
				}
			}
		}
	}
	return remarks.Remark{
		Pass: "mappromo", Kind: remarks.Missed, Reason: remarks.ReasonRoundLimit,
		Line: int(line), Function: f.Name, Unit: units.Labels(),
		Message: fmt.Sprintf("stopped after %d rounds; later loops were not examined", maxIterations),
	}
}

// recordMiss stores the first rejection of candidate c of f seen under
// region+pointer key id; finish emits it only if no later round
// promotes the candidate. Without a collector it records nothing.
func (p *promoter) recordMiss(id string, f *ir.Func, c *candidate, reason remarks.Reason, msg string) {
	if _, ok := p.pending[id]; !ok && p.pending != nil {
		p.pending[id] = remarks.Remark{Pass: "mappromo", Kind: remarks.Missed, Reason: reason,
			Line: int(c.line()), Function: f.Name, Unit: unitSet(c, p.pt).Labels(), Message: msg}
	}
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
	s := maps.Clone(pt.PTS(c.rep))
	if c.isArray {
		maps.Copy(s, pt.Contents(pt.PTS(c.rep)))
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

// cloneChain copies the part of v's def chain inside region r before
// pos and returns the value usable there. remap holds what is already
// available (a call site's arguments for the callee's parameters).
func (p *promoter) cloneChain(v ir.Value, r analysis.Region, pos *ir.Instr, remap map[ir.Value]ir.Value, comment string) ir.Value {
	if got, ok := remap[v]; ok {
		return got
	}
	in, ok := v.(*ir.Instr)
	if !ok || !r.Contains(in) {
		return v
	}
	c := ir.CloneInstr(in, nil)
	for i, a := range c.Args {
		c.Args[i] = p.cloneChain(a, r, pos, remap, comment)
	}
	c.Comment = comment
	pos.Block.InsertBefore(c, pos)
	remap[v] = c
	p.clones = append(p.clones, c)
	return c
}
