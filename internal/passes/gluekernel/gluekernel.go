// Package gluekernel implements the glue kernel optimization (§5.3).
//
// Small CPU code regions between two GPU kernel launches force map
// promotion to fail: the CPU touches mapped data inside the loop, so the
// allocation units must shuttle back and forth every iteration. The
// performance of such code is inconsequential, so lowering it to a
// single-threaded GPU kernel (<<<1,1>>>) removes the CPU accesses,
// letting the map operations rise higher in the call graph. Alias
// analysis identifies the candidate regions: straight-line runs of
// instructions, inside launch-bearing loops, whose memory accesses all
// target units that kernels in the same loop already use.
package gluekernel

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/remarks"
)

// MaxRunLength bounds the size of an outlined region; bigger regions are
// presumed performance-relevant CPU code.
const MaxRunLength = 48

// Result reports pass activity.
type Result struct {
	Outlined int
}

// Run outlines glue regions across the module. Pass activity is
// reported as optimization remarks through rc (which may be nil).
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	return RunWith(m, analysis.BuildPointsTo(m), rc)
}

// RunWith is Run over pt, the module's points-to solution, which it
// extends to the kernels it outlines.
func RunWith(m *ir.Module, pt *analysis.PointsTo, rc *remarks.Collector) (*Result, error) {
	res := &Result{}
	count := 0
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		for {
			launch, err := outlineOne(m, f, pt, &count, rc)
			if err != nil {
				return nil, err
			}
			if launch == nil {
				break
			}
			if err := commmgmt.ManageLaunch(launch, pt, rc); err != nil {
				return nil, err
			}
			rc.Emit(remarks.Remark{
				Pass: "gluekernel", Kind: remarks.Applied,
				Line: int(launch.Line), Function: f.Name,
				Message: fmt.Sprintf("CPU code between launches outlined into single-thread glue kernel %s",
					launch.Callee.Name),
			})
			res.Outlined++
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("gluekernel produced invalid IR: %w", err)
	}
	return res, nil
}

// outlineOne finds and outlines a single glue region in f, returning the
// new launch (the CFG analyses are rebuilt between outlinings).
func outlineOne(m *ir.Module, f *ir.Func, pt *analysis.PointsTo, count *int, rc *remarks.Collector) (*ir.Instr, error) {
	f.Renumber()
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)

	for _, loop := range forest.All {
		// Units used by kernels launched in this loop: the units behind
		// every launch pointer argument and every runtime-library call.
		mapped := make(analysis.ObjSet)
		launches := 0
		loop.Instrs(func(in *ir.Instr) {
			switch {
			case in.Op == ir.OpLaunch:
				launches++
				for _, a := range in.Args[2:] {
					for o := range pt.PTS(a) {
						mapped[o] = true
					}
				}
			case in.IsRuntimeCall(""):
				for o := range pt.PTS(in.Args[0]) {
					mapped[o] = true
				}
				for o := range pt.Contents(pt.PTS(in.Args[0])) {
					mapped[o] = true
				}
			}
		})
		if launches == 0 || len(mapped) == 0 {
			continue
		}
		// Slots the loop's control depends on (induction variables):
		// runs touching them stay on the CPU.
		blocked := controlSlots(loop)

		// Glue regions live between launches at the loop's own nesting
		// level; code inside deeper (still-sequential) loops runs many
		// times per launch and must not become per-element launches.
		inChild := make(map[*ir.Block]bool)
		for _, c := range loop.Children {
			for cb := range c.Blocks {
				inChild[cb] = true
			}
		}
		for _, b := range loop.BlockList() {
			if inChild[b] {
				continue
			}
			if run := findRun(b, pt, mapped, blocked, rc); run != nil {
				launch := outline(m, f, b, run, count, pt)
				return launch, nil
			}
		}
	}
	return nil, nil
}

// controlSlots collects allocas referenced by the loop header (the
// induction variable and bound slots).
func controlSlots(loop *analysis.Loop) map[ir.Value]bool {
	blocked := make(map[ir.Value]bool)
	for _, in := range loop.Header.Instrs {
		for _, link := range ir.DefChain(in) {
			if link.Op == ir.OpLoad {
				if slot, ok := link.Args[0].(*ir.Instr); ok && slot.Op == ir.OpAlloca {
					blocked[slot] = true
				}
			}
		}
	}
	return blocked
}

// run is one outlineable region: a contiguous instruction span, of which
// the hoisted subset (loads of CPU-resident pointer/scalar slots) stays on
// the CPU, repositioned before the launch, and the rest moves to the GPU.
type run struct {
	span    []*ir.Instr
	hoisted map[*ir.Instr]bool
	moved   int // count of instructions that actually move
}

// spanLine is the first stamped source line in a run's span.
func spanLine(span []*ir.Instr) int {
	for _, in := range span {
		if in.Line != 0 {
			return int(in.Line)
		}
	}
	return 0
}

// findRun locates a maximal outlineable instruction run in block b that
// touches mapped units. It returns nil if none qualifies.
func findRun(b *ir.Block, pt *analysis.PointsTo, mapped analysis.ObjSet, blocked map[ir.Value]bool, rc *remarks.Collector) *run {
	var best *run
	cur := &run{hoisted: make(map[*ir.Instr]bool)}
	curTouches := false

	flush := func() {
		if curTouches && cur.moved >= 2 && cur.moved <= MaxRunLength &&
			(best == nil || cur.moved > best.moved) {
			best = cur
		} else if curTouches && cur.moved > MaxRunLength {
			rc.Emit(remarks.Remark{
				Pass: "gluekernel", Kind: remarks.Missed,
				Reason: remarks.ReasonRegionTooLarge,
				Line:   spanLine(cur.span), Function: b.Fn.Name,
				Message: fmt.Sprintf("CPU region of %d instruction(s) exceeds the glue limit of %d; large regions are presumed performance-relevant CPU code",
					cur.moved, MaxRunLength),
			})
		}
		cur = &run{hoisted: make(map[*ir.Instr]bool)}
		curTouches = false
	}

	for _, in := range b.Instrs {
		// Loads of unmapped local slots (pointer variables, scalars) stay
		// on the CPU; their values become by-value kernel arguments. They
		// may be moved ahead of the run only if nothing earlier in the
		// run can store to them — mapped-unit stores cannot alias an
		// unmapped slot, so membership in the run suffices.
		if in.Op == ir.OpLoad && isSlotLoad(in) && !blocked[in.Args[0]] && !mappedAccess(in, pt, mapped) {
			cur.span = append(cur.span, in)
			cur.hoisted[in] = true
			continue
		}
		ok, touches := outlineable(in, pt, mapped, blocked)
		if !ok {
			flush()
			continue
		}
		cur.span = append(cur.span, in)
		cur.moved++
		curTouches = curTouches || touches
	}
	flush()
	if best == nil {
		return nil
	}
	// Trim hoisted loads at the tail (they contribute nothing).
	for len(best.span) > 0 && best.hoisted[best.span[len(best.span)-1]] {
		best.span = best.span[:len(best.span)-1]
	}
	// No value defined by a *moved* instruction may be used outside the
	// run (glue kernels cannot return registers). Hoisted loads stay on
	// the CPU, so external uses of them are fine.
	inMoved := make(map[*ir.Instr]bool, len(best.span))
	for _, in := range best.span {
		if !best.hoisted[in] {
			inMoved[in] = true
		}
	}
	escape := false
	b.Fn.Instrs(func(user *ir.Instr) {
		if inMoved[user] {
			return
		}
		for _, a := range user.Args {
			if x, ok := a.(*ir.Instr); ok && inMoved[x] {
				escape = true
			}
		}
	})
	if escape {
		rc.Emit(remarks.Remark{
			Pass: "gluekernel", Kind: remarks.Missed,
			Reason: remarks.ReasonLiveOut,
			Line:   spanLine(best.span), Function: b.Fn.Name,
			Message: "glue region defines a register value used outside it, and glue kernels cannot return registers",
		})
		return nil
	}
	return best
}

// isSlotLoad reports whether the load reads directly from a stack slot or
// global (a named scalar/pointer variable rather than computed memory).
func isSlotLoad(in *ir.Instr) bool {
	switch a := in.Args[0].(type) {
	case *ir.GlobalRef:
		return true
	case *ir.Instr:
		return a.Op == ir.OpAlloca
	case *ir.Param:
		return true
	}
	return false
}

// mappedAccess reports whether the access's target may be a mapped unit.
func mappedAccess(in *ir.Instr, pt *analysis.PointsTo, mapped analysis.ObjSet) bool {
	for o := range pt.PTS(in.Args[0]) {
		if mapped[o] {
			return true
		}
	}
	return false
}

// outlineable classifies one instruction; touches reports whether it
// accesses a mapped unit (the reason glue kernels exist).
func outlineable(in *ir.Instr, pt *analysis.PointsTo, mapped analysis.ObjSet, blocked map[ir.Value]bool) (ok, touches bool) {
	switch {
	case in.Pure():
		return true, false
	case in.Op == ir.OpLoad || in.Op == ir.OpStore:
		if blocked[in.Args[0]] {
			return false, false
		}
		pts := pt.PTS(in.Args[0])
		if len(pts) == 0 {
			return false, false
		}
		all := true
		for o := range pts {
			if !mapped[o] {
				all = false
			}
		}
		// Accesses entirely within mapped units are the glue we want on
		// the GPU; anything else pins the run to the CPU.
		return all, all
	}
	return false, false
}

// outline moves the run's non-hoisted instructions into a new
// single-thread kernel and replaces them with a launch; hoisted slot
// loads are repositioned ahead of the launch and passed by value.
func outline(m *ir.Module, f *ir.Func, b *ir.Block, r *run, count *int, pt *analysis.PointsTo) *ir.Instr {
	*count++
	k := &ir.Func{Name: fmt.Sprintf("%s__glue%d", f.Name, *count), Kernel: true}
	m.AddFunc(k)
	entry := k.NewBlock("entry")

	inMoved := make(map[*ir.Instr]bool, len(r.span))
	for _, in := range r.span {
		if !r.hoisted[in] {
			inMoved[in] = true
		}
	}
	valueMap := make(map[ir.Value]ir.Value)
	params := make(map[ir.Value]*ir.Param)
	var liveIns []ir.Value

	liveIn := func(v ir.Value) ir.Value {
		switch v.(type) {
		case *ir.Const, *ir.GlobalRef:
			return v
		}
		if p, ok := params[v]; ok {
			return p
		}
		p := &ir.Param{Fn: k, Index: len(k.Params),
			Name: fmt.Sprintf("g%d", len(k.Params)), Float: v.IsFloat()}
		k.Params = append(k.Params, p)
		params[v] = p
		liveIns = append(liveIns, v)
		return p
	}

	for _, in := range r.span {
		if r.hoisted[in] {
			continue
		}
		c := ir.CloneInstr(in, nil)
		pt.Replace(in, c)
		for i, a := range c.Args {
			if x, ok := a.(*ir.Instr); ok && inMoved[x] {
				c.Args[i] = valueMap[x]
				continue
			}
			c.Args[i] = liveIn(a)
		}
		entry.Append(c)
		valueMap[in] = c
	}
	entry.Append(&ir.Instr{Op: ir.OpRet})
	// The glued code's first source line stands in for the whole kernel's
	// launch site.
	gline := int32(0)
	for _, in := range r.span {
		if in.Line != 0 {
			gline = in.Line
			break
		}
	}
	for _, in := range entry.Instrs {
		if in.Line == 0 {
			in.Line = gline
		}
	}
	k.Renumber()

	// Reposition hoisted slot loads ahead of the run, preserving order.
	anchor := r.span[0]
	if r.hoisted[anchor] {
		// The first span instruction already precedes everything moved.
		for _, in := range r.span {
			if !r.hoisted[in] {
				anchor = in
				break
			}
		}
	}
	for _, in := range r.span {
		if r.hoisted[in] && in != anchor {
			b.Remove(in)
			b.InsertBefore(in, anchor)
		}
	}

	// Replace the moved instructions with a single-thread launch.
	launchArgs := []ir.Value{ir.IntConst(1), ir.IntConst(1)}
	launchArgs = append(launchArgs, liveIns...)
	launch := &ir.Instr{Op: ir.OpLaunch, Callee: k, Args: launchArgs,
		Comment: "glue kernel", Line: gline}
	b.InsertBefore(launch, anchor)
	pt.Derive(launch)
	for _, in := range r.span {
		if !r.hoisted[in] {
			b.Remove(in)
		}
	}
	f.Renumber()
	return launch
}
