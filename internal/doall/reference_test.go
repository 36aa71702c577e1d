package doall

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// RunReference is the driver Run replaced, kept as the oracle for it:
// try the loops of a function in forest order, and after every outline
// throw everything away — points-to, call graph, mod/ref, dominators,
// loop forest, slot index — rebuild it from the rewritten IR and start
// over, re-judging every loop already rejected. It is quadratic and
// trivially up to date; Run must produce the same module, the same
// remarks and the same count of parallelized loops (oracle_test.go).
func RunReference(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	res := &Result{Kernels: make(map[*ir.Func]*ir.Func)}
	kernels := 0
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		for referenceOnce(m, f, res, &kernels, rc) {
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("doall produced invalid IR: %w", err)
	}
	return res, nil
}

// referenceOnce outlines the first DOALL loop of f in forest order,
// outermost first, and reports whether it found one.
func referenceOnce(m *ir.Module, f *ir.Func, res *Result, kernels *int, rc *remarks.Collector) bool {
	pt := analysis.BuildPointsTo(m)
	d := &driver{m: m, pt: pt, rc: rc, res: res, kernels: *kernels,
		mr: analysis.BuildModRef(m, pt, analysis.BuildCallGraph(m))}
	fs := d.newFuncState(f)
	var try func(n *node) bool
	try = func(n *node) bool {
		res.LoopsFound++
		plan, why := fs.judge(n)
		if plan != nil {
			d.applied(f, n, fs.outline(n.loop, plan))
			return true
		}
		d.reject(f, n, why)
		for _, c := range n.kids {
			if try(c) {
				return true
			}
		}
		return false
	}
	for _, n := range fs.top {
		if try(n) {
			fs.sweep()
			*kernels = d.kernels
			return true
		}
	}
	return false
}
