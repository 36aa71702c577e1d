package analysis

import (
	"fmt"
	"sort"
	"strings"

	"cgcm/internal/ir"
)

// Object is an abstract memory object: an allocation site. CGCM's
// allocation units correspond one-to-one with these at run time.
type Object struct {
	// Exactly one of the following is set.
	Alloca *ir.Instr  // stack unit (OpAlloca site)
	Heap   *ir.Instr  // heap unit (malloc/calloc/realloc site)
	Global *ir.Global // global unit
	// Device marks GPU memory from cuda_malloc (manual management);
	// such objects need no CGCM translation. Heap holds the site.
	Device bool
}

// Name returns a diagnostic label.
func (o *Object) Name() string {
	switch {
	case o.Global != nil:
		return "global " + o.Global.Name
	case o.Device:
		return "device@" + o.Heap.Block.Fn.Name
	case o.Heap != nil:
		return "heap@" + o.Heap.Block.Fn.Name
	default:
		return "alloca@" + o.Alloca.Block.Fn.Name
	}
}

// SiteLine returns the source line of the allocation site, or 0 when
// the site carries no position (globals, synthesized instructions).
func (o *Object) SiteLine() int {
	switch {
	case o.Heap != nil:
		return int(o.Heap.Line)
	case o.Alloca != nil:
		return int(o.Alloca.Line)
	}
	return 0
}

// Label returns Name plus the allocation-site line when known
// ("heap@main:12"), anchoring diagnostics to source.
func (o *Object) Label() string {
	if l := o.SiteLine(); l > 0 {
		return fmt.Sprintf("%s:%d", o.Name(), l)
	}
	return o.Name()
}

// ObjSet is a set of abstract objects.
type ObjSet map[*Object]bool

// Labels renders the set's object labels, sorted and comma-joined, for
// diagnostics.
func (s ObjSet) Labels() string {
	ls := make([]string, 0, len(s))
	for o := range s {
		ls = append(ls, o.Label())
	}
	sort.Strings(ls)
	return strings.Join(ls, ", ")
}

func (s ObjSet) add(o *Object) bool {
	if s[o] {
		return false
	}
	s[o] = true
	return true
}

func (s ObjSet) addAll(t ObjSet) bool {
	changed := false
	for o := range t {
		if s.add(o) {
			changed = true
		}
	}
	return changed
}

// Intersects reports whether the two sets share an object.
func (s ObjSet) Intersects(t ObjSet) bool {
	for o := range s {
		if t[o] {
			return true
		}
	}
	return false
}

// PointsTo is the result of a whole-module flow- and context-insensitive
// Andersen-style points-to analysis. It is field-insensitive: pointer
// arithmetic inside an allocation unit stays within the same abstract
// object, mirroring CGCM's allocation-unit granularity.
type PointsTo struct {
	M *ir.Module
	// pts maps each IR value to the objects it may point to.
	pts map[ir.Value]ObjSet
	// contents maps each object to the objects stored inside it.
	contents map[*Object]ObjSet
	// objOf interns Objects per site.
	objByInstr  map[*ir.Instr]*Object
	objByGlobal map[*ir.Global]*Object
}

// BuildPointsTo runs the analysis to a fixed point.
func BuildPointsTo(m *ir.Module) *PointsTo {
	pt := &PointsTo{
		M:           m,
		pts:         make(map[ir.Value]ObjSet),
		contents:    make(map[*Object]ObjSet),
		objByInstr:  make(map[*ir.Instr]*Object),
		objByGlobal: make(map[*ir.Global]*Object),
	}
	for _, g := range m.Globals {
		pt.objByGlobal[g] = &Object{Global: g}
	}
	changed := true
	for changed {
		changed = false
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if pt.transfer(in) {
					changed = true
				}
			})
		}
	}
	return pt
}

func (pt *PointsTo) set(v ir.Value) ObjSet {
	s := pt.pts[v]
	if s == nil {
		s = make(ObjSet)
		pt.pts[v] = s
	}
	return s
}

func (pt *PointsTo) contentSet(o *Object) ObjSet {
	s := pt.contents[o]
	if s == nil {
		s = make(ObjSet)
		pt.contents[o] = s
	}
	return s
}

func (pt *PointsTo) objFor(in *ir.Instr) *Object {
	o := pt.objByInstr[in]
	if o == nil {
		if in.Op == ir.OpAlloca {
			o = &Object{Alloca: in}
		} else {
			o = &Object{Heap: in}
		}
		pt.objByInstr[in] = o
	}
	return o
}

// valSet returns the points-to set of an operand (globals resolve to
// their singleton object).
func (pt *PointsTo) valSet(v ir.Value) ObjSet {
	if g, ok := v.(*ir.GlobalRef); ok {
		s := pt.set(v)
		s.add(pt.objByGlobal[g.Global])
		return s
	}
	return pt.set(v)
}

func (pt *PointsTo) transfer(in *ir.Instr) bool {
	changed := false
	switch in.Op {
	case ir.OpAlloca:
		changed = pt.set(in).add(pt.objFor(in))
	case ir.OpIntrinsic:
		switch in.Name {
		case "malloc", "calloc", "realloc":
			changed = pt.set(in).add(pt.objFor(in))
		case "cuda_malloc":
			o := pt.objFor(in)
			o.Device = true
			changed = pt.set(in).add(o)
		case "cgcm.map", "cgcm.mapArray":
			// Translated pointers: they never alias host objects.
		}
	case ir.OpAdd, ir.OpSub:
		// Field-insensitive pointer arithmetic: result may point wherever
		// either operand points.
		for _, a := range in.Args {
			if pt.set(in).addAll(pt.valSet(a)) {
				changed = true
			}
		}
	case ir.OpLoad:
		if in.Size == 8 {
			for o := range pt.valSet(in.Args[0]) {
				if pt.set(in).addAll(pt.contentSet(o)) {
					changed = true
				}
			}
		}
	case ir.OpStore:
		if in.Size == 8 {
			src := pt.valSet(in.Args[1])
			for o := range pt.valSet(in.Args[0]) {
				if pt.contentSet(o).addAll(src) {
					changed = true
				}
			}
		}
	case ir.OpCall, ir.OpLaunch:
		callee := in.Callee
		args := in.Args
		if in.Op == ir.OpLaunch {
			args = args[2:]
		}
		for i, p := range callee.Params {
			if i < len(args) {
				if pt.set(p).addAll(pt.valSet(args[i])) {
					changed = true
				}
			}
		}
		if in.Op == ir.OpCall && callee.HasResult {
			// Result may point wherever any of the callee's return values
			// point.
			for _, b := range callee.Blocks {
				t := b.Terminator()
				if t != nil && t.Op == ir.OpRet && len(t.Args) > 0 {
					if pt.set(in).addAll(pt.valSet(t.Args[0])) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// PTS returns the points-to set of v (possibly empty, never nil).
func (pt *PointsTo) PTS(v ir.Value) ObjSet { return pt.valSet(v) }

// ObjectOf returns the abstract object for an allocation site instruction
// or nil if the instruction is not one.
func (pt *PointsTo) ObjectOf(in *ir.Instr) *Object {
	return pt.objByInstr[in]
}

// MayAlias reports whether two pointer values may reference the same
// allocation unit. Empty sets are treated as "may alias anything" to stay
// conservative about pointers the analysis cannot see through (e.g.
// integers cast back to pointers).
func (pt *PointsTo) MayAlias(a, b ir.Value) bool {
	sa, sb := pt.valSet(a), pt.valSet(b)
	if len(sa) == 0 || len(sb) == 0 {
		return true
	}
	return sa.Intersects(sb)
}
