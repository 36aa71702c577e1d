// Package doall implements the "simple automatic DOALL parallelizer" the
// paper couples with CGCM (§6.1): counted loops whose iterations are
// provably independent are outlined into GPU kernels and replaced by a
// kernel launch, one thread per iteration.
//
// The applicability test is deliberately simple, as in the paper:
//
//   - the loop is a counted for-loop (single induction variable with a
//     constant step and an invariant upper bound, single exit through the
//     header);
//   - the body has no side effects beyond memory stores (no calls except
//     pure math intrinsics, no I/O, no allocation);
//   - every store address is affine in the induction variable, and the
//     stride in the induction variable covers the span of all inner-loop
//     offsets, so distinct iterations write disjoint addresses;
//   - loads from stored allocation units fit the same windows (no
//     cross-iteration flow);
//   - scalars declared inside the body are private per iteration.
//
// Unlike CGCM itself, this parallelizer requires static alias analysis
// (points-to), mirroring the paper's observation that "the parallelizer
// requires static alias analysis. In practice, CGCM is more applicable
// than the simple DOALL transformation pass."
package doall

import (
	"fmt"
	"strings"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// BlockDim is the CUDA-style thread block size used for generated
// launches.
const BlockDim = 128

// Result reports what the parallelizer did.
type Result struct {
	// Kernels maps each generated kernel to the function it came from.
	Kernels map[*ir.Func]*ir.Func
	// LoopsFound counts candidate loops inspected: every loop is judged
	// once, and loops nested in a parallelized loop not at all.
	LoopsFound int
	// LoopsParallelized counts loops converted to kernel launches.
	LoopsParallelized int
	// Rejections records why loops were not parallelized (diagnostics),
	// one line per loop and reason.
	Rejections []string
}

// Run parallelizes every DOALL loop in the module's CPU functions.
// Pass activity is reported as optimization remarks through rc (which
// may be nil).
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	return RunWith(m, analysis.BuildPointsTo(m), rc)
}

// RunWith is Run over pt, the module's points-to solution, which it
// extends to the code it outlines. The other whole-module analyses are
// built once. Outlining a loop moves its memory operations into a kernel
// reached through one launch, clones the loads it hoists and adds one
// store of integer arithmetic, so the flow-insensitive points-to facts
// of every value that stays behind are what they were, and no later
// verdict needs them rebuilt.
func RunWith(m *ir.Module, pt *analysis.PointsTo, rc *remarks.Collector) (*Result, error) {
	d := &driver{
		m: m, pt: pt, rc: rc,
		mr:  analysis.BuildModRef(m, pt, analysis.BuildCallGraph(m)),
		res: &Result{Kernels: make(map[*ir.Func]*ir.Func)},
	}
	for _, f := range m.Funcs {
		if !f.Kernel {
			d.function(f)
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("doall produced invalid IR: %w", err)
	}
	return d.res, nil
}

// driver carries what one Run shares across functions.
type driver struct {
	m       *ir.Module
	pt      *analysis.PointsTo
	mr      *analysis.ModRef
	rc      *remarks.Collector
	res     *Result
	kernels int // kernels generated so far; names the next one
}

// node is one loop of a function's forest as the driver sees it: the
// loop, its verdict once it has one, and its place in the visit order.
type node struct {
	loop   *analysis.Loop
	parent *node
	// kids are the nested loops still to be visited, in visit order.
	kids []*node
	// size is the number of blocks the loop has now (it shrinks when a
	// loop inside it becomes a launch) and rpo its header's
	// reverse-postorder number; together they are the visit order.
	size, rpo int
	// pending counts the loops of this subtree not yet judged.
	pending int
	judged  bool
	line    int
	// screened is set when the verdict came from the body screen or
	// later, and bad is then the first instruction of the loop that a
	// kernel cannot contain, if any. A loop like that meets the screen
	// again once a loop inside it has become a launch.
	screened bool
	bad      *ir.Instr
	// whys are the rejection reasons already reported for the loop.
	whys []string
}

// before is the visit order among sibling loops: bigger first, then by
// header position. It is FindLoops' order, re-evaluated on the sizes
// the loops have now.
func (n *node) before(o *node) bool {
	if n.size != o.size {
		return n.size > o.size
	}
	return n.rpo < o.rpo
}

// function parallelizes the loops of f. Every loop is judged exactly
// once, parents before children, and a loop nested in an outlined one
// never (it is kernel code by then).
func (d *driver) function(f *ir.Func) {
	fs := d.newFuncState(f)
	for n := next(&fs.top); n != nil; n = next(&fs.top) {
		d.res.LoopsFound++
		n.judged = true
		for a := n; a != nil; a = a.parent {
			a.pending--
		}
		plan, why := fs.judge(n)
		if plan == nil {
			d.reject(f, n, why)
			continue
		}
		launch := fs.outline(n.loop, plan)
		d.applied(fs.f, n, launch)
		fs.settle(n, launch)
	}
	fs.sweep()
}

// applied records that loop n of f became launch.
func (d *driver) applied(f *ir.Func, n *node, launch *ir.Instr) {
	d.res.LoopsParallelized++
	d.rc.Emit(remarks.Remark{
		Pass: "doall", Kind: remarks.Applied,
		Line: n.line, Function: f.Name,
		Message: fmt.Sprintf("loop parallelized into GPU kernel %s, one thread per iteration",
			launch.Callee.Name),
	})
}

// next returns the loop to judge next: the first not yet judged in a
// preorder walk of the forest with siblings in visit order. Subtrees
// with nothing left to judge are dropped from the front as they are
// met, so every ancestor of the loop returned heads its sibling list.
func next(list *[]*node) *node {
	for len(*list) > 0 {
		n := (*list)[0]
		switch {
		case n.pending == 0:
			*list = (*list)[1:]
		case !n.judged:
			return n
		default:
			return next(&n.kids)
		}
	}
	return nil
}

// settle puts the forest in order again after loop n became launch: the
// loops inside n are kernel code now, and every enclosing loop lost n's
// blocks (and gained the preheader, if outlining had to make one).
//
// An enclosing loop that shrinks may fall behind a sibling it used to
// precede, which moves that sibling's whole subtree ahead of the
// enclosing loop's remaining children — so the order is re-established
// here rather than fixed up front. And an enclosing loop whose verdict
// came from the body screen or later would, judged again, be stopped by
// the launch it now contains: that second reason is reported for it,
// unless an inadmissible instruction it already had comes first.
func (fs *funcState) settle(n *node, launch *ir.Instr) {
	inside := n.pending
	n.pending = 0
	for a := n.parent; a != nil; a = a.parent {
		a.pending -= inside
		a.size += fs.grew - n.size
		sibs := fs.top
		if a.parent != nil {
			sibs = a.parent.kids
		}
		i := 0
		for ; i+1 < len(sibs) && sibs[i+1].before(a); i++ {
			sibs[i] = sibs[i+1]
		}
		sibs[i] = a
		if a.screened && (a.bad == nil || launch.Block.Index < a.bad.Block.Index) {
			fs.d.reject(fs.f, a, launchInBody)
		}
	}
}

// reject reports why loop n is not parallelized, once per reason.
func (d *driver) reject(f *ir.Func, n *node, why string) {
	for _, w := range n.whys {
		if w == why {
			return
		}
	}
	n.whys = append(n.whys, why)
	d.res.Rejections = append(d.res.Rejections, fmt.Sprintf("%s/%s: %s", f.Name, n.loop.Header.Name, why))
	d.rc.Emit(remarks.Remark{
		Pass: "doall", Kind: remarks.Missed,
		Reason: classifyRejection(why),
		Line:   n.line, Function: f.Name,
		Message: "loop not parallelized: " + why,
	})
}

// loopLine is the source position charged to a loop's remarks: the first
// stamped line in its header, else the first anywhere in the loop.
func loopLine(l *analysis.Loop) int {
	for _, in := range l.Header.Instrs {
		if in.Line != 0 {
			return int(in.Line)
		}
	}
	line := 0
	l.Instrs(func(in *ir.Instr) {
		if line == 0 && in.Line != 0 {
			line = int(in.Line)
		}
	})
	return line
}

// classifyRejection maps a parallelize rejection string to the
// machine-readable reason enum carried on Missed remarks.
func classifyRejection(why string) remarks.Reason {
	switch {
	case strings.Contains(why, "not affine"):
		return remarks.ReasonNotAffine
	case strings.Contains(why, "loop-carried dependence"),
		strings.Contains(why, "induction strides"),
		strings.Contains(why, "inner index shapes"),
		strings.Contains(why, "inner strides"):
		return remarks.ReasonCrossIterationDep
	case strings.Contains(why, "opaque pointer"):
		return remarks.ReasonUnknownPointsTo
	case strings.Contains(why, "differently-based accesses"):
		return remarks.ReasonAliasing
	case strings.Contains(why, "bound is not invariant"):
		return remarks.ReasonLoopVariantBase
	case strings.Contains(why, "live-outs"):
		return remarks.ReasonLiveOut
	case strings.Contains(why, "exit edges"),
		strings.Contains(why, "exits from the body"):
		return remarks.ReasonLoopShape
	case strings.Contains(why, "loop body"):
		return remarks.ReasonSideEffects
	default:
		// The remaining rejections all come from recognizeIV: the loop
		// is not a recognizable counted for-loop.
		return remarks.ReasonNotCounted
	}
}

// ivInfo describes a recognized induction variable.
type ivInfo struct {
	slot  *ir.Instr // the alloca holding the variable
	step  int64
	hi    ir.Value // exclusive upper bound (after Le normalization)
	hiAdd int64    // +1 for Le comparisons
	cmp   *ir.Instr
	incr  *ir.Instr // the single store that advances the variable
}

// recognizeIV matches the counted-loop pattern produced by the front end:
// header loads the variable, compares it against an invariant bound, and a
// single store in the latch-dominating block advances it by a constant.
func (fs *funcState) recognizeIV(l *analysis.Loop) (*ivInfo, string) {
	term := l.Header.Terminator()
	if term == nil || term.Op != ir.OpCondBr {
		return nil, "header does not end in a conditional branch"
	}
	// The true target must stay in the loop, the false target must leave.
	if !l.Blocks[term.Targets[0]] || l.Blocks[term.Targets[1]] {
		return nil, "header branch shape unsupported"
	}
	cmp, ok := term.Args[0].(*ir.Instr)
	if !ok || (cmp.Op != ir.OpLt && cmp.Op != ir.OpLe) || cmp.Float {
		return nil, "loop condition is not an integer < or <= comparison"
	}
	ld, ok := cmp.Args[0].(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return nil, "loop condition does not test a variable"
	}
	slot, ok := ld.Args[0].(*ir.Instr)
	if !ok || slot.Op != ir.OpAlloca {
		return nil, "induction variable is not a stack slot"
	}
	// The slot must be used only as the direct address of loads/stores, so
	// nothing aliases it.
	use := fs.slots[slot]
	if use.Escaped {
		return nil, "induction variable escapes"
	}
	iv := &ivInfo{slot: slot, hi: cmp.Args[1], cmp: cmp}
	if cmp.Op == ir.OpLe {
		iv.hiAdd = 1
	}
	// Find the unique advancing store inside the loop.
	var st *ir.Instr
	stores := 0
	for _, in := range use.Direct {
		if in.Op == ir.OpStore && l.ContainsInstr(in) {
			st = in
			stores++
		}
	}
	if stores != 1 {
		return nil, "induction variable has multiple updates"
	}
	add, ok := st.Args[1].(*ir.Instr)
	if !ok || add.Op != ir.OpAdd || add.Float {
		return nil, "induction update is not an addition"
	}
	base, ok := add.Args[0].(*ir.Instr)
	stepC, ok2 := add.Args[1].(*ir.Const)
	if !ok || !ok2 || base.Op != ir.OpLoad || base.Args[0] != slot {
		return nil, "induction update shape unsupported"
	}
	step := stepC.Int()
	if step <= 0 {
		return nil, "non-positive induction step"
	}
	iv.step = step
	iv.incr = st
	// The update must run exactly once per iteration: its block dominates
	// every latch (source of a back edge to the header).
	for _, p := range fs.preds[l.Header] {
		if l.Blocks[p] && !fs.dom.Dominates(st.Block, p) {
			return nil, "induction update does not dominate the latch"
		}
	}
	return iv, ""
}

// singleExit verifies the loop's only exit edge is the header's false
// branch and returns the outside target.
func singleExit(l *analysis.Loop) (*ir.Block, string) {
	exits := l.Exits()
	if len(exits) != 1 {
		return nil, fmt.Sprintf("loop has %d exit edges", len(exits))
	}
	if exits[0][0] != l.Header {
		return nil, "loop exits from the body (break or return)"
	}
	return exits[0][1], ""
}

// launchInBody is the body screen's reason for a loop that contains a
// launch; the driver also states it for a loop that has just acquired
// one.
const launchInBody = "loop body launches a kernel"

// inadmissible says why a kernel cannot contain in, or "" if it can.
func inadmissible(in *ir.Instr) string {
	switch in.Op {
	case ir.OpCall:
		return "loop body calls a function"
	case ir.OpLaunch:
		return launchInBody
	case ir.OpRet:
		return "loop body returns"
	case ir.OpIntrinsic:
		if !in.Pure() {
			return "loop body calls impure intrinsic " + in.Name
		}
	}
	return ""
}

// screenBody finds the first instruction of the loop that a kernel
// cannot contain.
func screenBody(l *analysis.Loop) (bad *ir.Instr, why string) {
	for _, b := range l.BlockList() {
		for _, in := range b.Instrs {
			if why := inadmissible(in); why != "" {
				return in, why
			}
		}
	}
	return nil, ""
}
