package doall

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
)

// ivRange describes an inner induction variable with constant bounds: the
// values its slot can hold inside the candidate loop body span
// [lo, lo+trip*step] (the final value is observable after the inner loop).
type ivRange struct {
	slot     *ir.Instr
	min, max int64
}

// affineCtx carries the state for affine address analysis of one
// candidate loop.
type affineCtx struct {
	loop   *analysis.Loop
	ivSlot *ir.Instr
	inner  map[*ir.Instr]*ivRange
	inv    *analysis.Invariance
	// forward maps private single-store scalar slots to their stored
	// value (poor man's mem2reg for address computations).
	forward map[*ir.Instr]ir.Value
}

// affine is a symbolic address: base terms (region-invariant symbols with
// coefficients) + ivCoeff*IV + inner IV contributions + a constant.
type affine struct {
	terms map[string]int64
	iv    int64
	inner map[*ivRange]int64
	c     int64
}

func newAffine() *affine {
	return &affine{terms: map[string]int64{}, inner: map[*ivRange]int64{}}
}

func (a *affine) addScaled(b *affine, k int64) {
	for t, c := range b.terms {
		a.terms[t] += c * k
		if a.terms[t] == 0 {
			delete(a.terms, t)
		}
	}
	for r, c := range b.inner {
		a.inner[r] += c * k
		if a.inner[r] == 0 {
			delete(a.inner, r)
		}
	}
	a.iv += b.iv * k
	a.c += b.c * k
}

// baseKey identifies the invariant part of the address; accesses with the
// same baseKey are comparable.
func (a *affine) baseKey() string {
	keys := make([]string, 0, len(a.terms))
	for t := range a.terms {
		keys = append(keys, fmt.Sprintf("%s*%d", t, a.terms[t]))
	}
	sort.Strings(keys)
	return strings.Join(keys, "+")
}

// window returns the inclusive offset range the address spans within one
// candidate-loop iteration, relative to ivCoeff*IV + base.
func (a *affine) window(size int64) (lo, hi int64) {
	lo, hi = a.c, a.c
	for r, c := range a.inner {
		p, q := c*r.min, c*r.max
		if p > q {
			p, q = q, p
		}
		lo += p
		hi += q
	}
	hi += size - 1
	return lo, hi
}

// affineOf computes the affine form of an address value, or nil if the
// address is not analyzable.
func (cx *affineCtx) affineOf(v ir.Value) *affine {
	switch x := v.(type) {
	case *ir.Const:
		if x.Float {
			return nil
		}
		a := newAffine()
		a.c = x.Int()
		return a
	case *ir.Param:
		a := newAffine()
		a.terms["p:"+x.Name] = 1
		return a
	case *ir.GlobalRef:
		a := newAffine()
		a.terms["g:"+x.Global.Name] = 1
		return a
	case *ir.Instr:
		return cx.affineOfInstr(x)
	}
	return nil
}

func (cx *affineCtx) affineOfInstr(x *ir.Instr) *affine {
	if !cx.loop.ContainsInstr(x) || cx.inv.Invariant(x) {
		// Region-invariant: a pure symbol.
		if key, ok := cx.symKey(x); ok {
			a := newAffine()
			a.terms[key] = 1
			return a
		}
		return nil
	}
	switch x.Op {
	case ir.OpLoad:
		slot, ok := x.Args[0].(*ir.Instr)
		if !ok || slot.Op != ir.OpAlloca {
			return nil
		}
		if slot == cx.ivSlot {
			a := newAffine()
			a.iv = 1
			return a
		}
		if r, ok := cx.inner[slot]; ok {
			a := newAffine()
			a.inner[r] = 1
			return a
		}
		if fwd, ok := cx.forward[slot]; ok {
			return cx.affineOf(fwd)
		}
		return nil
	case ir.OpAdd:
		a := cx.affineOf(x.Args[0])
		b := cx.affineOf(x.Args[1])
		if a == nil || b == nil || x.Float {
			return nil
		}
		a.addScaled(b, 1)
		return a
	case ir.OpSub:
		a := cx.affineOf(x.Args[0])
		b := cx.affineOf(x.Args[1])
		if a == nil || b == nil || x.Float {
			return nil
		}
		a.addScaled(b, -1)
		return a
	case ir.OpMul:
		if x.Float {
			return nil
		}
		if k, ok := x.Args[1].(*ir.Const); ok && !k.Float {
			a := cx.affineOf(x.Args[0])
			if a == nil {
				return nil
			}
			s := newAffine()
			s.addScaled(a, k.Int())
			return s
		}
		if k, ok := x.Args[0].(*ir.Const); ok && !k.Float {
			a := cx.affineOf(x.Args[1])
			if a == nil {
				return nil
			}
			s := newAffine()
			s.addScaled(a, k.Int())
			return s
		}
		return nil
	case ir.OpShl:
		if k, ok := x.Args[1].(*ir.Const); ok && !k.Float && k.Int() >= 0 && k.Int() < 32 {
			a := cx.affineOf(x.Args[0])
			if a == nil {
				return nil
			}
			s := newAffine()
			s.addScaled(a, 1<<uint(k.Int()))
			return s
		}
		return nil
	}
	return nil
}

// symKey builds a structural key for a region-invariant value so that two
// syntactically identical computations (e.g. two loads of the same slot)
// unify.
func (cx *affineCtx) symKey(v ir.Value) (string, bool) {
	switch x := v.(type) {
	case *ir.Const:
		if x.Float {
			return fmt.Sprintf("cf:%x", x.Bits), true
		}
		return fmt.Sprintf("c:%d", x.Int()), true
	case *ir.Param:
		return "p:" + x.Name, true
	case *ir.GlobalRef:
		return "g:" + x.Global.Name, true
	case *ir.Instr:
		parts := make([]string, 0, len(x.Args)+1)
		parts = append(parts, fmt.Sprintf("%s/%d", x.Op, x.Size))
		for _, a := range x.Args {
			k, ok := cx.symKey(a)
			if !ok {
				return "", false
			}
			parts = append(parts, k)
		}
		if x.Op == ir.OpAlloca {
			// Distinct alloca sites are distinct symbols.
			return fmt.Sprintf("a:%p", x), true
		}
		return "(" + strings.Join(parts, " ") + ")", true
	}
	return "", false
}

// discoverInnerIVs recognizes constant-bounded induction variables of
// loops nested inside l, so stores like a[i*M+j] can be proven disjoint
// across i when |M*elem| covers j's span.
func (fs *funcState) discoverInnerIVs(l *analysis.Loop) map[*ir.Instr]*ivRange {
	out := make(map[*ir.Instr]*ivRange)
	var walk func(m *analysis.Loop)
	walk = func(m *analysis.Loop) {
		for _, c := range m.Children {
			if iv, _ := fs.recognizeIV(c); iv != nil {
				if r := fs.constRange(c, iv); r != nil {
					out[iv.slot] = r
				}
			}
			walk(c)
		}
	}
	walk(l)
	return out
}

// initConst returns the integer constant the induction variable of loop
// l starts from, when every store to its slot outside l (anywhere in
// the function) writes that one constant.
func (fs *funcState) initConst(l *analysis.Loop, iv *ivInfo) (int64, bool) {
	var init *int64
	for _, in := range fs.slots[iv.slot].Direct {
		if in.Op != ir.OpStore || in.Block == nil || l.ContainsInstr(in) {
			continue // a load, a store that left with an outlined loop, or the increment
		}
		c, ok := in.Args[1].(*ir.Const)
		if !ok || c.Float {
			return 0, false
		}
		v := c.Int()
		if init != nil && *init != v {
			return 0, false
		}
		init = &v
	}
	if init == nil {
		return 0, false
	}
	return *init, true
}

// constRange derives the value range of an inner IV when its init and
// bound are integer constants.
func (fs *funcState) constRange(inner *analysis.Loop, iv *ivInfo) *ivRange {
	hiC, ok := iv.hi.(*ir.Const)
	if !ok || hiC.Float {
		return nil
	}
	lo, ok := fs.initConst(inner, iv)
	if !ok {
		return nil
	}
	hiEx := hiC.Int() + iv.hiAdd
	if hiEx <= lo {
		return &ivRange{slot: iv.slot, min: lo, max: lo}
	}
	trip := (hiEx - lo + iv.step - 1) / iv.step
	// Range of values the variable holds during loop-body execution.
	// (The final value lo+trip*step is only observable after the inner
	// loop; addresses formed there are not modeled and the benchmarks do
	// not use the pattern.)
	return &ivRange{slot: iv.slot, min: lo, max: lo + (trip-1)*iv.step}
}

// access is one load or store considered by the dependence test.
type access struct {
	in      *ir.Instr
	aff     *affine
	size    int64
	isStore bool
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func roundDiv(c, unit int64) int64 {
	return int64(math.Round(float64(c) / float64(unit)))
}

// checkGroup decides whether all accesses in one base group are free of
// cross-iteration conflicts with respect to the candidate induction
// variable. Overlap between accesses of the *same* iteration is fine (one
// GPU thread executes an iteration sequentially); what must never happen
// is two different iterations touching the same byte with at least one
// store.
//
// ivTrip is the candidate loop's trip count when static, else -1.
func checkGroup(accs []access, step, ivTrip int64) string {
	ref := accs[0].aff
	for _, a := range accs[1:] {
		if a.aff.iv != ref.iv {
			return "accesses to one unit use different induction strides"
		}
	}
	if ref.iv == 0 {
		return "loop-carried dependence: stored address does not advance with the induction variable"
	}
	ivUnit := abs64(ref.iv * step)

	// Pair inner dimensions across accesses by |coefficient|; every
	// access must contribute the same multiset of strides.
	type dim struct {
		unit   int64
		lo, hi int64 // merged contribution range in bytes
		init   bool
	}
	unitsOf := func(a *affine) []int64 {
		var us []int64
		for _, c := range a.inner {
			us = append(us, abs64(c))
		}
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		return us
	}
	refUnits := unitsOf(ref)
	for _, a := range accs[1:] {
		us := unitsOf(a.aff)
		if len(us) != len(refUnits) {
			return "accesses to one unit use different inner index shapes"
		}
		for i := range us {
			if us[i] != refUnits[i] {
				return "accesses to one unit use different inner strides"
			}
		}
	}
	for i := 1; i < len(refUnits); i++ {
		if refUnits[i] == refUnits[i-1] {
			return "ambiguous inner index strides"
		}
	}

	dims := make(map[int64]*dim)
	for _, u := range refUnits {
		dims[u] = &dim{unit: u}
	}

	// Per access: fold the constant into inner dimensions (largest
	// first), merge contribution ranges, and record the residual element
	// window and the IV shift.
	type footprint struct {
		shift    int64 // iv-index shift (case B folding)
		rlo, rhi int64 // residual window [rlo, rhi)
		isStore  bool
	}
	var foots []footprint
	var resLo, resHi int64
	resInit := false
	allZeroShift := true
	for _, a := range accs {
		c := a.aff.c
		// Contribution ranges per inner dim, with const folding.
		contrib := make(map[int64][2]int64)
		for r, coeff := range a.aff.inner {
			lo := coeff * r.min
			hi := coeff * r.max
			if lo > hi {
				lo, hi = hi, lo
			}
			contrib[abs64(coeff)] = [2]int64{lo, hi}
		}
		// Fold const into dims, largest unit first.
		for i := len(refUnits) - 1; i >= 0; i-- {
			u := refUnits[i]
			if q := roundDiv(c, u); q != 0 {
				cr := contrib[u]
				contrib[u] = [2]int64{cr[0] + q*u, cr[1] + q*u}
				c -= q * u
			}
		}
		// Residual iv shift (used by the shift-aware fallback).
		shift := int64(0)
		if len(refUnits) == 0 && abs64(c)*2 > ivUnit {
			shift = roundDiv(c, ivUnit)
			c -= shift * ivUnit
		}
		if shift != 0 {
			allZeroShift = false
		}
		for u, cr := range contrib {
			d := dims[u]
			if !d.init {
				d.lo, d.hi, d.init = cr[0], cr[1], true
			} else {
				if cr[0] < d.lo {
					d.lo = cr[0]
				}
				if cr[1] > d.hi {
					d.hi = cr[1]
				}
			}
		}
		if !resInit {
			resLo, resHi, resInit = c, c+a.size, true
		} else {
			if c < resLo {
				resLo = c
			}
			if c+a.size > resHi {
				resHi = c + a.size
			}
		}
		foots = append(foots, footprint{shift: shift, rlo: c, rhi: c + a.size, isStore: a.isStore})
	}

	// Case A: no iv shifts. Lexicographic separation: the iv stride must
	// cover the element window plus every finer dimension's span, and
	// every coarser dimension's stride must cover the accumulated span
	// below it (which requires the iv's static range).
	if allZeroShift {
		cum := resHi - resLo
		placedIV := false
		ok := true
		var sorted []*dim
		for _, d := range dims {
			sorted = append(sorted, d)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].unit < sorted[j].unit })
		idx := 0
		for _, d := range sorted {
			if !placedIV && ivUnit <= d.unit {
				if ivUnit < cum {
					ok = false
					break
				}
				placedIV = true
				if ivTrip > 0 {
					cum += ivUnit * (ivTrip - 1)
				} else if idx < len(sorted) {
					// Unknown iv range below a coarser dimension.
					ok = false
					break
				}
			}
			if placedIV && d.unit < cum {
				ok = false
				break
			}
			cum += d.hi - d.lo
			idx++
		}
		if ok && !placedIV {
			if ivUnit < cum {
				ok = false
			}
		}
		if ok {
			return ""
		}
		if len(refUnits) > 0 {
			return fmt.Sprintf("loop-carried dependence: stride %d does not cover access span", ivUnit)
		}
		// Fall through to case B for one-dimensional groups.
		for i := range foots {
			if q := roundDiv(foots[i].rlo, ivUnit); q != 0 {
				foots[i].shift = q
				foots[i].rlo -= q * ivUnit
				foots[i].rhi -= q * ivUnit
			}
		}
	}

	// Case B: one-dimensional accesses with iv-index shifts (wavefronts:
	// score[i] written, score[i-shift] read from earlier launches).
	// Stores may only share a residual window with accesses at the same
	// shift (same iteration).
	if len(refUnits) != 0 {
		return "loop-carried dependence: shifted multi-dimensional access"
	}
	for i, a := range foots {
		for j, b := range foots {
			if i == j || (!a.isStore && !b.isStore) {
				continue
			}
			overlap := a.rlo < b.rhi && b.rlo < a.rhi
			if overlap && a.shift != b.shift {
				return "loop-carried dependence: shifted accesses overlap across iterations"
			}
		}
	}
	return ""
}

// outerTrip statically evaluates the candidate loop's trip count when its
// init and bound are constants, else -1.
func (fs *funcState) outerTrip(l *analysis.Loop, iv *ivInfo) int64 {
	hiC, ok := iv.hi.(*ir.Const)
	if !ok || hiC.Float {
		return -1
	}
	lo, ok := fs.initConst(l, iv)
	if !ok {
		return -1
	}
	hiEx := hiC.Int() + iv.hiAdd
	if hiEx <= lo {
		return 0
	}
	return (hiEx - lo + iv.step - 1) / iv.step
}

// checkDependences proves all cross-iteration independence requirements.
// It returns "" on success or a rejection reason.
func (fs *funcState) checkDependences(l *analysis.Loop, iv *ivInfo, cx *affineCtx) string {
	pt := fs.d.pt
	// Private objects: allocas inside the loop body.
	private := make(map[*analysis.Object]bool)
	l.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			if o := pt.ObjectOf(in); o != nil {
				private[o] = true
			}
		}
	})
	isPrivate := func(addr ir.Value) bool {
		pts := pt.PTS(addr)
		if len(pts) == 0 {
			return false
		}
		for o := range pts {
			if !private[o] {
				return false
			}
		}
		return true
	}

	// Gather the shared stores and their target object set.
	var stores []access
	storedObjs := make(analysis.ObjSet)
	reason := ""
	l.Instrs(func(in *ir.Instr) {
		if reason != "" || in.Op != ir.OpStore || in == iv.incr {
			return
		}
		if isPrivate(in.Args[0]) {
			return
		}
		aff := cx.affineOf(in.Args[0])
		if aff == nil {
			reason = "store address is not affine in the induction variable"
			return
		}
		stores = append(stores, access{in: in, aff: aff, size: in.Size, isStore: true})
		pts := pt.PTS(in.Args[0])
		if len(pts) == 0 {
			reason = "store through an opaque pointer"
			return
		}
		for o := range pts {
			storedObjs[o] = true
		}
	})
	if reason != "" {
		return reason
	}

	// Group stores — and the loads that may touch stored units — by the
	// invariant base of their addresses.
	// bases lists the groups' keys in order of first access, so that of
	// several conflicting groups the first in program order is the one
	// reported, compile after compile.
	groups := make(map[string][]access)
	var bases []string
	join := func(a access) {
		key := a.aff.baseKey()
		if _, ok := groups[key]; !ok {
			bases = append(bases, key)
		}
		groups[key] = append(groups[key], a)
	}
	for _, s := range stores {
		join(s)
	}
	loadReason := ""
	l.Instrs(func(in *ir.Instr) {
		if loadReason != "" || in.Op != ir.OpLoad {
			return
		}
		pts := pt.PTS(in.Args[0])
		if isPrivate(in.Args[0]) {
			return
		}
		touchesStored := len(pts) == 0
		for o := range pts {
			if storedObjs[o] {
				touchesStored = true
			}
		}
		if !touchesStored {
			return
		}
		aff := cx.affineOf(in.Args[0])
		if aff == nil {
			loadReason = "load from a stored unit is not affine"
			return
		}
		join(access{in: in, aff: aff, size: in.Size})
	})
	if loadReason != "" {
		return loadReason
	}

	ivTrip := fs.outerTrip(l, iv)
	for _, base := range bases {
		accs := groups[base]
		hasStore := false
		for _, a := range accs {
			hasStore = hasStore || a.isStore
		}
		if !hasStore {
			continue
		}
		if r := checkGroup(accs, iv.step, ivTrip); r != "" {
			return r
		}
	}
	// Conservative cross-group check: groups with different bases must
	// target disjoint units; since we cannot compare bases symbolically,
	// require that no two distinct store groups share a points-to object.
	// (Loads joined a store's group only by identical base, so a load in
	// a different group aliasing a store is also caught here. Accesses
	// outside every group touch no stored unit and cannot conflict.)
	seen := make(map[*analysis.Object]string)
	for _, base := range bases {
		for _, a := range groups[base] {
			for o := range pt.PTS(a.in.Args[0]) {
				if !storedObjs[o] {
					continue
				}
				if prev, ok := seen[o]; ok && prev != base {
					return "two differently-based accesses may touch one stored unit"
				}
				seen[o] = base
			}
		}
	}
	return ""
}
