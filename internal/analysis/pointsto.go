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
	Heap   *ir.Instr  // heap unit (a builtin whose ir.Intrinsics row allocates)
	Global *ir.Global // global unit
	// Device marks GPU memory (ir.DeviceAlloc: cuda_malloc, manual
	// management); such objects need no CGCM translation. Heap holds the
	// site.
	Device bool

	// id numbers the object within its analysis, and self is the set
	// {o}, shared by every value that points to o alone.
	id   int
	self ObjSet
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
	// pts maps each IR value that may point somewhere to the objects it
	// may point to; a value that points nowhere has no entry.
	pts map[ir.Value]ptSet
	// contents maps each object to the objects stored inside it,
	// likewise only when there are any.
	contents map[*Object]ptSet
	// objOf interns Objects per site.
	objByInstr  map[*ir.Instr]*Object
	objByGlobal map[*ir.Global]*Object
}

// BuildPointsTo runs the analysis to its least fixed point.
//
// The constraints are the usual inclusion constraints (an allocation
// site points to its object; add/sub results include their operands;
// an 8-byte load includes the contents of every object its address may
// be; an 8-byte store adds the stored value to those contents; formals
// include actuals and a call's result the callee's returned values).
// They are monotone, so every order of applying them reaches the same
// least solution; this one applies each only when one of its inputs
// grew. One scan interns the allocation sites and records who consumes
// what (value to using instruction, object to the loads that may read
// it); after that only values that actually point somewhere are ever
// touched, and only one that may point to several objects gets a set of
// its own (the rest share their object's singleton).
//
// While solving, values and objects are known by dense numbers, a
// value's being its register number, so the module is renumbered first:
// a pass may have inserted instructions since the last Renumber, and
// the numbers are derived data that every pass refreshes when it is
// done.
func BuildPointsTo(m *ir.Module) *PointsTo {
	pt := &PointsTo{M: m, objByGlobal: make(map[*ir.Global]*Object, len(m.Globals))}
	s := &ptSolver{pt: pt, base: make(map[*ir.Func]int, len(m.Funcs))}
	regs, instrs, sites := 0, 0, 0
	for _, f := range m.Funcs {
		f.Renumber()
		s.base[f] = regs
		regs += f.NumRegs
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
			for _, in := range b.Instrs {
				if allocates(in) {
					sites++
				}
			}
		}
	}
	pt.objByInstr = make(map[*ir.Instr]*Object, sites)
	s.slab = make([]Object, sites+len(m.Globals))
	for _, g := range m.Globals {
		pt.objByGlobal[g] = s.intern(Object{Global: g})
	}
	s.vals = make([]ir.Value, regs)
	s.sets = make([]ptSet, regs)
	s.cons = make([]ptCons, 0, instrs/2)
	s.uses = make([][2]int, 0, instrs)
	for _, f := range m.Funcs {
		base := s.base[f]
		for _, p := range f.Params {
			s.vals[base+p.Reg] = p
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				s.scan(in, base)
			}
		}
	}
	s.indexUses(regs)
	for _, site := range s.sites {
		s.grow(s.base[site.Block.Fn]+site.Reg, pt.objByInstr[site])
	}
	for len(s.work) > 0 {
		c := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.cons[c].queued = false
		s.apply(s.cons[c].in, s.cons[c].base)
	}
	s.publish()
	return pt
}

// allocates reports whether in is an allocation site.
func allocates(in *ir.Instr) bool {
	if row := in.Intrinsic(); row != nil {
		return row.Alloc != ir.NoAlloc
	}
	return in.Op == ir.OpAlloca
}

// ptSet is a set of objects as the analysis keeps it: nearly always
// empty or a single object, for which it needs no map of its own.
type ptSet struct {
	one  *Object
	many ObjSet // set once there are two or more; one is nil then
}

func (p ptSet) empty() bool { return p.one == nil && p.many == nil }

// set returns p as the ObjSet queries hand out.
func (p ptSet) set() ObjSet {
	if p.one != nil {
		return p.one.self
	}
	return p.many
}

// addTo adds p's members to dst and reports whether dst grew.
func (p ptSet) addTo(dst ObjSet) bool {
	if p.one != nil {
		return dst.add(p.one)
	}
	return dst.addAll(p.many)
}

func (p *ptSet) add(o *Object) bool {
	switch {
	case p.one == o || p.many[o]:
		return false
	case p.many != nil:
		p.many[o] = true
	case p.one == nil:
		p.one = o
	default:
		p.many, p.one = ObjSet{p.one: true, o: true}, nil
	}
	return true
}

// union adds q's members to p and reports whether p grew.
func (p *ptSet) union(q ptSet) bool {
	grew := q.one != nil && p.add(q.one)
	for o := range q.many {
		grew = p.add(o) || grew
	}
	return grew
}

// ptCons is an instruction that carries a constraint, with its
// function's first value number.
type ptCons struct {
	in     *ir.Instr
	base   int
	queued bool
}

// ptSolver is BuildPointsTo's worklist state. Value v of function f is
// number base[f]+v.Reg, object o is number o.id, and the instructions
// that carry a constraint are known by their index in cons.
type ptSolver struct {
	pt   *PointsTo
	base map[*ir.Func]int
	vals []ir.Value // by value number
	sets []ptSet    // by value number: what the value may point to
	slab []Object   // the objects, by object number
	held []ptSet    // by object number: the object's contents
	cons []ptCons
	// sites are the allocation sites, seeded once the scan is over.
	sites []*ir.Instr
	// uses are the def-to-use edges (value, constraint reading its set)
	// in scan order; indexUses sorts them by value, after which the
	// consumers of value v are users[useOff[v]:useOff[v+1]].
	uses   [][2]int
	useOff []int
	users  []int
	// readers chains, per object, the loads whose address may be the
	// object, which read its contents: readers[o.id] is the index in
	// chain of the latest, and each link names the one before (or -1).
	readers []int
	chain   [][2]int // (load constraint, previous link)
	// callers lists, per function, the calls that take its result.
	callers map[*ir.Func][]int
	// work holds the constraints to re-apply.
	work []int
}

// intern gives o its number and its place in the slab.
func (s *ptSolver) intern(o Object) *Object {
	o.id = len(s.held)
	s.held = append(s.held, ptSet{})
	s.readers = append(s.readers, -1)
	p := &s.slab[o.id]
	*p = o
	p.self = ObjSet{p: true}
	return p
}

// scan interns allocation sites and records which values' sets the
// constraint of in reads. Nothing points anywhere yet except references
// to globals, so only their consumers are queued.
func (s *ptSolver) scan(in *ir.Instr, base int) {
	if in.Op.HasResult() {
		s.vals[base+in.Reg] = in
	}
	if allocates(in) {
		o := Object{Alloca: in}
		if row := in.Intrinsic(); row != nil {
			o = Object{Heap: in, Device: row.Alloc == ir.DeviceAlloc}
		}
		s.pt.objByInstr[in] = s.intern(o)
		s.sites = append(s.sites, in)
		return
	}
	// Other intrinsics yield nothing to track; cgcm.map and mapArray in
	// particular return translated pointers, which never alias host
	// objects.
	var reads []ir.Value
	switch in.Op {
	case ir.OpAdd, ir.OpSub:
		reads = in.Args
	case ir.OpLoad:
		if in.Size == 8 {
			reads = in.Args[:1]
		}
	case ir.OpStore:
		if in.Size == 8 {
			reads = in.Args[:2]
		}
	case ir.OpCall, ir.OpLaunch:
		reads = in.Args
		if in.Op == ir.OpLaunch {
			reads = reads[2:]
		}
		if n := len(in.Callee.Params); len(reads) > n {
			reads = reads[:n]
		}
	case ir.OpRet:
		// What a function returns is read by the calls of it; the ret
		// stands in for them (see enqueue).
		if len(in.Args) > 0 {
			reads = in.Args[:1]
		}
	}
	takesResult := in.Op == ir.OpCall && in.Callee.HasResult
	if len(reads) == 0 && !takesResult {
		return
	}
	c := len(s.cons)
	s.cons = append(s.cons, ptCons{in: in, base: base})
	if takesResult {
		if s.callers == nil {
			s.callers = make(map[*ir.Func][]int)
		}
		s.callers[in.Callee] = append(s.callers[in.Callee], c)
		s.enqueue(c) // the callee may return a global
	}
	for _, v := range reads {
		switch x := v.(type) {
		case *ir.Instr:
			s.uses = append(s.uses, [2]int{base + x.Reg, c})
		case *ir.Param:
			s.uses = append(s.uses, [2]int{base + x.Reg, c})
		case *ir.GlobalRef:
			if o := s.pt.objByGlobal[x.Global]; o != nil && in.Op == ir.OpLoad {
				s.read(o, c)
			}
			s.enqueue(c)
		}
	}
}

// indexUses groups the recorded edges by value: a counting sort over
// the module's regs value numbers.
func (s *ptSolver) indexUses(regs int) {
	s.useOff = make([]int, regs+1)
	for _, u := range s.uses {
		s.useOff[u[0]+1]++
	}
	for v := 0; v < regs; v++ {
		s.useOff[v+1] += s.useOff[v]
	}
	s.users = make([]int, len(s.uses))
	for _, u := range s.uses {
		s.users[s.useOff[u[0]]] = u[1]
		s.useOff[u[0]]++
	}
	// Filling advanced every offset to its successor's; shift back.
	copy(s.useOff[1:], s.useOff[:regs])
	s.useOff[0] = 0
	s.uses = nil
}

// read makes load constraint c a reader of o's contents.
func (s *ptSolver) read(o *Object, c int) {
	s.chain = append(s.chain, [2]int{c, s.readers[o.id]})
	s.readers[o.id] = len(s.chain) - 1
}

func (s *ptSolver) enqueue(c int) {
	if in := s.cons[c].in; in.Op == ir.OpRet {
		for _, call := range s.callers[in.Block.Fn] {
			s.enqueue(call)
		}
		return
	}
	if !s.cons[c].queued {
		s.cons[c].queued = true
		s.work = append(s.work, c)
	}
}

// grow adds o to the set of value v. When that is news, v's consumers
// are queued, and those of them that load through v become readers of o.
func (s *ptSolver) grow(v int, o *Object) {
	if !s.sets[v].add(o) {
		return
	}
	for _, c := range s.users[s.useOff[v]:s.useOff[v+1]] {
		if s.cons[c].in.Op == ir.OpLoad {
			s.read(o, c)
		}
		s.enqueue(c)
	}
}

func (s *ptSolver) growAll(v int, from ptSet) {
	if from.one != nil {
		s.grow(v, from.one)
	}
	for o := range from.many {
		s.grow(v, o)
	}
}

// setOf returns the set of operand v of an instruction whose function's
// first value number is base.
func (s *ptSolver) setOf(v ir.Value, base int) ptSet {
	switch x := v.(type) {
	case *ir.Instr:
		return s.sets[base+x.Reg]
	case *ir.Param:
		return s.sets[base+x.Reg]
	case *ir.GlobalRef:
		return ptSet{one: s.pt.objByGlobal[x.Global]}
	}
	return ptSet{}
}

// store adds src to o's contents and queues o's readers if they grew.
func (s *ptSolver) store(o *Object, src ptSet) {
	if s.held[o.id].union(src) {
		for l := s.readers[o.id]; l >= 0; l = s.chain[l][1] {
			s.enqueue(s.chain[l][0])
		}
	}
}

// apply re-establishes the constraint of in, whose function's first
// value number is base.
func (s *ptSolver) apply(in *ir.Instr, base int) {
	switch in.Op {
	case ir.OpAdd, ir.OpSub:
		// Field-insensitive pointer arithmetic: result may point wherever
		// either operand points.
		for _, a := range in.Args {
			s.growAll(base+in.Reg, s.setOf(a, base))
		}
	case ir.OpLoad:
		addr := s.setOf(in.Args[0], base)
		if addr.one != nil {
			s.growAll(base+in.Reg, s.held[addr.one.id])
		}
		for o := range addr.many {
			s.growAll(base+in.Reg, s.held[o.id])
		}
	case ir.OpStore:
		addr, src := s.setOf(in.Args[0], base), s.setOf(in.Args[1], base)
		if addr.one != nil {
			s.store(addr.one, src)
		}
		for o := range addr.many {
			s.store(o, src)
		}
	case ir.OpCall, ir.OpLaunch:
		callee := in.Callee
		args := in.Args
		if in.Op == ir.OpLaunch {
			args = args[2:]
		}
		cbase := s.base[callee]
		for i, p := range callee.Params {
			if i < len(args) {
				s.growAll(cbase+p.Reg, s.setOf(args[i], base))
			}
		}
		if in.Op == ir.OpCall && callee.HasResult {
			// Result may point wherever any of the callee's return values
			// point.
			for _, b := range callee.Blocks {
				t := b.Terminator()
				if t != nil && t.Op == ir.OpRet && len(t.Args) > 0 {
					s.growAll(base+in.Reg, s.setOf(t.Args[0], cbase))
				}
			}
		}
	}
}

// publish turns the solver's arrays into the maps queries read.
func (s *ptSolver) publish() {
	pt := s.pt
	n := 0
	for _, p := range s.sets {
		if !p.empty() {
			n++
		}
	}
	pt.pts = make(map[ir.Value]ptSet, n)
	for v, p := range s.sets {
		if !p.empty() {
			pt.pts[s.vals[v]] = p
		}
	}
	pt.contents = make(map[*Object]ptSet)
	for i, p := range s.held {
		if !p.empty() {
			pt.contents[&s.slab[i]] = p
		}
	}
}

// objs returns what operand v may point to (a reference to a global, to
// the global's object).
func (pt *PointsTo) objs(v ir.Value) ptSet {
	if g, ok := v.(*ir.GlobalRef); ok {
		return ptSet{one: pt.objByGlobal[g.Global]}
	}
	return pt.pts[v]
}

// Derive gives in, an instruction inserted since the analysis was built,
// the set its constraint yields from its operands' sets, as the solver
// would: add and sub take their operands' objects, an 8-byte load the
// contents of its address's, and a launch of a kernel made for it gives
// the kernel's parameters its arguments' sets. That is what a rebuild
// would give as long as nothing flows from in into what was solved: a
// clone whose uses are runtime calls and other clones, or an outlined
// kernel, which stores no pointer to host memory.
func (pt *PointsTo) Derive(in *ir.Instr) {
	var p ptSet
	switch {
	case in.Op == ir.OpAdd || in.Op == ir.OpSub:
		for _, a := range in.Args {
			p.union(pt.objs(a))
		}
	case in.Op == ir.OpLoad && in.Size == 8:
		for o := range pt.PTS(in.Args[0]) {
			p.union(pt.contents[o])
		}
	case in.Op == ir.OpLaunch:
		for i, prm := range in.Callee.Params {
			if s := pt.objs(in.Args[i+2]); !s.empty() {
				pt.pts[prm] = s
			}
		}
	}
	if !p.empty() {
		pt.pts[in] = p
	}
}

// Replace hands old's set, and its object when old is an alloca, to new,
// the copy an outline put in old's place in a kernel. Once the copy's
// operands have their originals' sets, that is the set a rebuild gives.
func (pt *PointsTo) Replace(old, new *ir.Instr) {
	if s, ok := pt.pts[old]; ok {
		pt.pts[new] = s
	}
	if o := pt.objByInstr[old]; o != nil {
		pt.objByInstr[new], o.Alloca = o, new // a kernel allocates no heap
	}
}

// PTS returns the points-to set of v (possibly empty). The set belongs
// to the analysis; callers must not modify it.
func (pt *PointsTo) PTS(v ir.Value) ObjSet { return pt.objs(v).set() }

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
	sa, sb := pt.PTS(a), pt.PTS(b)
	if len(sa) == 0 || len(sb) == 0 {
		return true
	}
	return sa.Intersects(sb)
}
