// Package allocapromo implements alloca promotion (§5.2), an enabling
// transformation for map promotion.
//
// Map promotion cannot hoist a local variable's mapping above its parent
// function — the allocation unit does not exist before the function is
// entered. Alloca promotion preallocates such locals in the parents'
// stack frames: the alloca becomes a fresh parameter, every caller
// allocates the slot in its own entry block and passes its address. Map
// operations on the unit can then climb higher in the call graph. Like
// map promotion, the pass iterates to convergence; recursive functions
// are not eligible.
package allocapromo

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// Result reports pass activity.
type Result struct {
	Promoted   int
	Iterations int
}

const maxIterations = 8

// Run promotes eligible allocas until convergence. Pass activity is
// reported as optimization remarks through rc (which may be nil).
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	res := &Result{}
	for res.Iterations < maxIterations {
		res.Iterations++
		if !runOnce(m, res, rc) {
			break
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("allocapromo produced invalid IR: %w", err)
	}
	return res, nil
}

// allocaLabel names an alloca unit the way the points-to analysis does
// ("alloca@f:7"), so remarks about it cross-reference the ledger.
func allocaLabel(f *ir.Func, a *ir.Instr) string {
	if a.Line > 0 {
		return fmt.Sprintf("alloca@%s:%d", f.Name, a.Line)
	}
	return "alloca@" + f.Name
}

// missAll reports every communication-participating alloca of f as a
// missed promotion for one shared reason.
func missAll(rc *remarks.Collector, f *ir.Func, reason remarks.Reason, msg string) {
	if rc == nil {
		return
	}
	for _, a := range promotable(f) {
		rc.Emit(remarks.Remark{
			Pass: "allocapromo", Kind: remarks.Missed,
			Reason: reason,
			Line:   int(a.Line), Function: f.Name, Unit: allocaLabel(f, a),
			Message: msg,
		})
	}
}

func runOnce(m *ir.Module, res *Result, rc *remarks.Collector) bool {
	cg := analysis.BuildCallGraph(m)
	changed := false
	for _, f := range m.Funcs {
		if f.Kernel || f.Name == "main" || f.Name == "__cgcm_init" {
			continue
		}
		sites := cg.Callers[f]
		if len(sites) == 0 {
			missAll(rc, f, remarks.ReasonNoCallers,
				"local cannot be preallocated higher: "+f.Name+" has no call sites")
			continue
		}
		if cg.Recursive(f) {
			missAll(rc, f, remarks.ReasonRecursive,
				"local cannot be preallocated in callers: "+f.Name+" is recursive, so caller frames would be shared across activations")
			continue
		}
		callerOK := true
		for _, s := range sites {
			if s.Caller.Kernel || s.Instr.Op != ir.OpCall {
				callerOK = false
			}
		}
		if !callerOK {
			missAll(rc, f, remarks.ReasonKernelCaller,
				"local cannot be preallocated in callers: "+f.Name+" is called from GPU code")
			continue
		}
		for _, a := range promotable(f) {
			rc.Emit(remarks.Remark{
				Pass: "allocapromo", Kind: remarks.Applied,
				Line: int(a.Line), Function: f.Name, Unit: allocaLabel(f, a),
				Message: fmt.Sprintf("local preallocated in %d caller frame(s) and passed as a parameter, so map operations on it can climb the call graph",
					len(sites)),
			})
			promote(f, a, sites)
			res.Promoted++
			changed = true
		}
		if changed {
			// Call sites changed arity; rebuild the call graph before
			// touching more functions this round.
			return true
		}
	}
	return changed
}

// promotable returns the entry-block allocas of f that participate in
// GPU communication (their value reaches a runtime-library call or a
// kernel launch) and are therefore worth hoisting.
func promotable(f *ir.Func) []*ir.Instr {
	// Values feeding communication: launch pointer args and cgcm.* args,
	// transitively through def chains.
	comm := make(map[*ir.Instr]bool)
	mark := func(v ir.Value) {
		for _, link := range ir.DefChain(v) {
			comm[link] = true
		}
	}
	f.Instrs(func(in *ir.Instr) {
		switch {
		case in.Op == ir.OpLaunch:
			for _, a := range in.Args[2:] {
				mark(a)
			}
		case in.IsRuntimeCall(""):
			for _, a := range in.Args {
				mark(a)
			}
		}
	})
	// Also follow one level of spill indirection: a slot whose stored
	// value chain includes the alloca counts when the slot itself feeds
	// communication.
	fwd := analysis.SpillForwarding(f)
	for slot, val := range fwd {
		if comm[slot] {
			mark(val)
		}
	}
	// Slots that are directly stored to are scalar spill slots (parameter
	// copies, locals): the function writes them, so hoisting their unit
	// can never enable map promotion — and rewriting them to parameters
	// would hide the spill pattern other passes resolve through.
	storedDirectly := make(map[ir.Value]bool)
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			storedDirectly[in.Args[0]] = true
		}
	})
	var out []*ir.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca && comm[in] && in.Size > 0 && !storedDirectly[in] {
			out = append(out, in)
		}
	}
	return out
}

// promote rewrites one alloca into a parameter supplied by every caller.
func promote(f *ir.Func, a *ir.Instr, sites []analysis.CallSite) {
	p := &ir.Param{
		Fn:    f,
		Index: len(f.Params),
		Name:  fmt.Sprintf("promoted%d", len(f.Params)),
	}
	f.Params = append(f.Params, p)
	f.ReplaceUses(a, p)
	a.Block.Remove(a)

	// Each caller preallocates the unit in its entry block; one slot per
	// caller frame serves every call (lifetimes of calls do not overlap).
	slotPerCaller := make(map[*ir.Func]*ir.Instr)
	for _, site := range sites {
		caller := site.Caller
		slot := slotPerCaller[caller]
		if slot == nil {
			slot = &ir.Instr{Op: ir.OpAlloca, Size: a.Size,
				Comment: "promoted from " + f.Name}
			entry := caller.Entry()
			entry.InsertBefore(slot, entry.Instrs[0])
			slotPerCaller[caller] = slot
		}
		site.Instr.Args = append(site.Instr.Args, slot)
	}
	f.Renumber()
	for caller := range slotPerCaller {
		caller.Renumber()
	}
}
