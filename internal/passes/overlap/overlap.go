// Package overlap implements the communication-overlap pass: the
// compile-time half of asynchronous CPU-GPU communication.
//
// Communication management (and map promotion after it) leaves
// synchronous cgcm.map/cgcm.unmap calls around every launch. Each
// synchronous transfer stalls the CPU until the GPU drains, pays the DMA
// inline, and resynchronizes the timelines — so on communication-limited
// programs the bus serializes everything. This pass rewrites call sites
// to their stream variants where overlap is sound and profitable:
//
//   - Every cgcm.map becomes cgcm.mapAsync (prefetch). This is always
//     sound: the runtime orders each upload behind the unit's previous
//     transfer and (for reused device memory) the compute timeline, and
//     the next kernel launch waits on the accumulated upload events — so
//     the kernel still starts only after its inputs landed, but the CPU
//     never stalls and the upload overlaps whatever the GPU was running.
//
//   - A cgcm.unmap becomes cgcm.unmapAsync (overlapped flush) unless a
//     forward scan of the remaining block finds host code that may touch
//     the flushed unit — a load/store whose address may alias it, or a
//     call that may reach it — before control leaves the block. A flush
//     the host consumes immediately cannot overlap anything; it stays
//     synchronous and the pass reports a Missed remark with
//     ReasonHostAccess naming the blocking access. (Correctness never
//     depends on this scan: the machine charges a host access to a
//     still-flushing unit the residual DMA wait either way. The scan is
//     a profitability and diagnosis gate.)
//
//   - cgcm.mapArray/cgcm.unmapArray stay synchronous: translating a
//     doubly-indirect unit's elements must complete before the shadow
//     pointer array uploads, so the site is reported as Missed with
//     ReasonIndirectArray.
//
// Every decision — applied or missed — is an optimization remark under
// pass "overlap", so -remarks explains exactly which transfers a run can
// overlap and why the rest cannot.
package overlap

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
)

// Result reports what the pass did.
type Result struct {
	// MapsRewritten counts cgcm.map sites rewritten to cgcm.mapAsync.
	MapsRewritten int
	// UnmapsRewritten counts cgcm.unmap sites rewritten to cgcm.unmapAsync.
	UnmapsRewritten int
	// Missed counts sites left synchronous (host-access hazards and
	// indirect arrays).
	Missed int
}

// Rewritten is the total number of call sites moved to stream verbs.
func (r *Result) Rewritten() int { return r.MapsRewritten + r.UnmapsRewritten }

// Run rewrites map/unmap sites in the module's CPU code to their
// asynchronous variants. It only renames intrinsics — no instructions
// move — so the module needs no renumbering.
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	return RunWith(m, analysis.BuildPointsTo(m), rc)
}

// RunWith is Run over pt, the module's points-to solution.
func RunWith(m *ir.Module, pt *analysis.PointsTo, rc *remarks.Collector) (*Result, error) {
	res := &Result{}
	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		for _, blk := range f.Blocks {
			for i, in := range blk.Instrs {
				verb, _ := in.RuntimeCall()
				switch {
				case verb == ir.RuntimeVerb{Op: ir.RtMap}:
					in.Name = ir.RuntimeVerb{Op: ir.RtMap, Async: true}.Name()
					res.MapsRewritten++
					if rc != nil {
						rc.Emit(remarks.Remark{
							Pass: "overlap", Kind: remarks.Applied,
							Line: int(in.Line), Function: f.Name,
							Unit: pt.PTS(in.Args[0]).Labels(),
							Message: "prefetch: upload issued asynchronously on the h2d stream; " +
								"the next kernel launch waits for it, the CPU does not",
						})
					}
				case verb == ir.RuntimeVerb{Op: ir.RtUnmap}:
					if hz := hostHazard(pt, blk, i, in.Args[0]); hz != nil {
						res.Missed++
						if rc != nil {
							rc.Emit(remarks.Remark{
								Pass: "overlap", Kind: remarks.Missed,
								Reason: remarks.ReasonHostAccess,
								Line:   int(in.Line), Function: f.Name,
								Unit: pt.PTS(in.Args[0]).Labels(),
								Message: fmt.Sprintf(
									"flush stays synchronous: host %s at line %d may touch the unit before the copy-back completes",
									hz.Op, hz.Line),
							})
						}
						continue
					}
					in.Name = ir.RuntimeVerb{Op: ir.RtUnmap, Async: true}.Name()
					res.UnmapsRewritten++
					if rc != nil {
						rc.Emit(remarks.Remark{
							Pass: "overlap", Kind: remarks.Applied,
							Line: int(in.Line), Function: f.Name,
							Unit: pt.PTS(in.Args[0]).Labels(),
							Message: "overlapped flush: copy-back issued asynchronously on the d2h stream; " +
								"host work continues while the DMA drains",
						})
					}
				case verb.Array && verb.Op != ir.RtRelease:
					res.Missed++
					if rc != nil {
						rc.Emit(remarks.Remark{
							Pass: "overlap", Kind: remarks.Missed,
							Reason: remarks.ReasonIndirectArray,
							Line:   int(in.Line), Function: f.Name,
							Unit: pt.PTS(in.Args[0]).Labels(),
							Message: "doubly-indirect pointer array stays synchronous: element translation " +
								"must complete before the shadow array uploads",
						})
					}
				}
			}
		}
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("overlap produced invalid IR: %w", err)
	}
	return res, nil
}

// hostHazard scans forward from the unmap at blk.Instrs[idx] to the end
// of the block and returns the first instruction through which host code
// may touch the flushed unit, or nil when the flush can overlap the rest
// of the block. Memory operations are judged conservatively (an address
// the analysis cannot see through is a hazard); call and intrinsic
// arguments optimistically (only a proven intersection blocks), because
// the machine's host-access wait keeps an optimistic answer correct —
// only the overlap accounting would be optimistic, never the output.
func hostHazard(pt *analysis.PointsTo, blk *ir.Block, idx int, ptr ir.Value) *ir.Instr {
	upts := pt.PTS(ptr)
	for _, in := range blk.Instrs[idx+1:] {
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			apts := pt.PTS(in.Args[0])
			if len(apts) == 0 || len(upts) == 0 || apts.Intersects(upts) {
				return in
			}
		case ir.OpCall:
			for _, a := range in.Args {
				if pt.PTS(a).Intersects(upts) {
					return in
				}
			}
		case ir.OpIntrinsic:
			if in.IsRuntimeCall("") {
				continue // runtime-library calls manage units, they do not read them as host data
			}
			for _, a := range in.Args {
				if pt.PTS(a).Intersects(upts) {
					return in
				}
			}
		}
	}
	return nil
}
