package mappromo

import (
	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// RunReference is the driver Run replaced, kept as the oracle for it:
// before every round it throws points-to, the call graph, mod/ref and
// every function's loops and spill forwarding away and rebuilds them
// from the rewritten IR, so a value cloned in one round has a set from
// the next round on, and none before. It is trivially up to date; Run,
// which builds the module analyses once and a function's again only
// after a loop promotion changed it, must produce the same module, the
// same remarks and the same Result (oracle_test.go).
func RunReference(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	p := newPromoter(m, rc)
	for {
		p.clones = p.clones[:0]
		clear(p.fwds)
		p.pt = analysis.BuildPointsTo(m)
		p.cg = analysis.BuildCallGraph(m)
		p.mr = analysis.BuildModRef(m, p.pt, p.cg)
		if p.res.Iterations == maxIterations || !p.round() {
			return p.finish()
		}
	}
}
