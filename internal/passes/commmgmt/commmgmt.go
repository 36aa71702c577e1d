// Package commmgmt implements CGCM's communication management pass (§4).
//
// The pass starts from "sequential CPU codes calling parallel GPU codes
// without any CPU-GPU communication" and, for every kernel launch, inserts
// calls to the run-time library: map/mapArray for each live-in pointer
// before the launch (replacing the launch argument with the translated
// device pointer), unmap/unmapArray after the launch for each live-out
// pointer, and release/releaseArray to balance the mapping. Live-in
// globals used by the kernel are managed the same way; the kernel
// references their device named regions directly.
//
// Which arguments are pointers — and at what indirection depth — comes
// from use-based type inference (internal/typeinfer), never from the
// unreliable C types.
package commmgmt

import (
	"fmt"
	"sort"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
	"cgcm/internal/remarks"
	"cgcm/internal/typeinfer"
)

// Result reports what the pass did.
type Result struct {
	Launches     int
	MapsInserted int
	ArrayMaps    int
	// Classifications per kernel, for diagnostics and tests.
	Kernels map[*ir.Func]*typeinfer.Classification
}

// Run manages communication for every launch in the module's CPU code.
// Pass activity is reported as optimization remarks through rc (which
// may be nil).
func Run(m *ir.Module, rc *remarks.Collector) (*Result, error) {
	return RunWith(m, analysis.BuildPointsTo(m), rc)
}

// RunWith is Run over pt, the module's points-to solution.
func RunWith(m *ir.Module, pt *analysis.PointsTo, rc *remarks.Collector) (*Result, error) {
	res := &Result{Kernels: make(map[*ir.Func]*typeinfer.Classification)}

	classify := func(k *ir.Func) (*typeinfer.Classification, error) {
		if c, ok := res.Kernels[k]; ok {
			return c, nil
		}
		c, err := typeinfer.Infer(k, pt)
		if err != nil {
			return nil, err
		}
		res.Kernels[k] = c
		return c, nil
	}

	for _, f := range m.Funcs {
		if f.Kernel {
			continue
		}
		// Collect launches first; insertion mutates blocks.
		var launches []*ir.Instr
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpLaunch {
				launches = append(launches, in)
			}
		})
		for _, launch := range launches {
			cls, err := classify(launch.Callee)
			if err != nil {
				return nil, err
			}
			if err := manage(launch, cls, res, pt, rc); err != nil {
				return nil, err
			}
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("commmgmt produced invalid IR: %w", err)
	}
	return res, nil
}

// ManageLaunch manages a single launch. The glue kernel pass uses it for
// the launches it creates after the module-wide management pass has run.
func ManageLaunch(launch *ir.Instr, pt *analysis.PointsTo, rc *remarks.Collector) error {
	cls, err := typeinfer.Infer(launch.Callee, pt)
	if err != nil {
		return err
	}
	res := &Result{Kernels: map[*ir.Func]*typeinfer.Classification{launch.Callee: cls}}
	return manage(launch, cls, res, pt, rc)
}

// isDevicePointer reports whether a launch argument already names GPU
// memory (it derives from cuda_malloc — the manually managed quadrant).
// CGCM must not re-map such pointers.
func isDevicePointer(v ir.Value, pt *analysis.PointsTo) bool {
	pts := pt.PTS(v)
	if len(pts) == 0 {
		return false
	}
	for o := range pts {
		if !o.Device {
			return false
		}
	}
	return true
}

// livein is one value needing communication management at a launch.
type livein struct {
	val   ir.Value
	depth int
	// argIdx is the launch argument index to rewrite, or -1 for globals.
	argIdx int
}

// manage inserts runtime calls around one launch.
func manage(launch *ir.Instr, cls *typeinfer.Classification, res *Result, pt *analysis.PointsTo, rc *remarks.Collector) error {
	res.Launches++
	blk := launch.Block
	k := launch.Callee

	var ins []livein
	// Pointer arguments (launch args after grid and block).
	for i, p := range k.Params {
		d := cls.ParamDepth[p]
		if d > 0 && !isDevicePointer(launch.Args[i+2], pt) {
			ins = append(ins, livein{val: launch.Args[i+2], depth: d, argIdx: i + 2})
		}
	}
	// Globals the kernel references.
	var globals []*ir.Global
	for g := range cls.GlobalDepth {
		globals = append(globals, g)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Name < globals[j].Name })
	for _, g := range globals {
		ins = append(ins, livein{val: &ir.GlobalRef{Global: g}, depth: cls.GlobalDepth[g], argIdx: -1})
	}

	call := func(op ir.RuntimeOp, li livein, why string) *ir.Instr {
		return &ir.Instr{Op: ir.OpIntrinsic, Name: ir.RuntimeVerb{Op: op, Array: li.depth == 2}.Name(),
			Args: []ir.Value{li.val}, Comment: why + " for " + k.Name, Line: launch.Line}
	}
	// Before the launch: map each live-in, rewriting pointer arguments to
	// the translated device pointer.
	for _, li := range ins {
		if li.depth == 2 {
			res.ArrayMaps++
		}
		mp := call(ir.RtMap, li, "live-in")
		blk.InsertBefore(mp, launch)
		if li.argIdx >= 0 {
			launch.Args[li.argIdx] = mp
		}
		res.MapsInserted++
	}
	// After the launch: unmap every live-out, then release everything.
	cursor := launch
	for _, li := range ins {
		um := call(ir.RtUnmap, li, "live-out")
		blk.InsertAfter(um, cursor)
		cursor = um
	}
	for _, li := range ins {
		rel := call(ir.RtRelease, li, "balance")
		blk.InsertAfter(rel, cursor)
		cursor = rel
	}
	if rc != nil {
		// The allocation units now governed by this launch's runtime
		// calls: every unit any managed live-in may point to, plus the
		// element units behind pointer arrays.
		units := make(analysis.ObjSet)
		for _, li := range ins {
			pts := pt.PTS(li.val)
			for o := range pts {
				units[o] = true
			}
			if li.depth == 2 {
				for o := range pt.Contents(pts) {
					units[o] = true
				}
			}
		}
		rc.Emit(remarks.Remark{
			Pass: "commmgmt", Kind: remarks.Applied,
			Line: int(launch.Line), Function: blk.Fn.Name, Unit: units.Labels(),
			Message: fmt.Sprintf("inserted %d map/unmap/release triple(s) around launch of %s",
				len(ins), k.Name),
		})
		nptr, nglob := 0, 0
		for _, li := range ins {
			if li.argIdx >= 0 {
				nptr++
			} else {
				nglob++
			}
		}
		rc.Emit(remarks.Remark{
			Pass: "commmgmt", Kind: remarks.Analysis,
			Line: int(launch.Line), Function: blk.Fn.Name,
			Message: fmt.Sprintf("type inference found %d live-in pointer argument(s) and %d referenced global unit(s) for kernel %s",
				nptr, nglob, k.Name),
		})
	}
	return nil
}
