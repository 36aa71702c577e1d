package analysis_test

import (
	"testing"

	"cgcm/internal/analysis"
	"cgcm/internal/bench"
	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/allocapromo"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/passes/gluekernel"
	"cgcm/internal/passes/mappromo"
	"cgcm/internal/passes/overlap"
)

// compile lowers a mini-C source to IR for analysis testing.
func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, perrs := parser.Parse("t.c", src)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs)
	}
	info, serrs := sema.Check(f)
	if len(serrs) > 0 {
		t.Fatalf("sema: %v", serrs)
	}
	m, err := irbuild.Build(info)
	if err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	return m
}

const loopNest = `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		for (int j = 0; j < 5; j++) {
			s += i * j;
		}
	}
	while (s > 100) { s /= 2; }
	return s;
}`

func TestDominators(t *testing.T) {
	m := compile(t, loopNest)
	f := m.Func("main")
	dom := analysis.NewDominators(f)
	entry := f.Entry()
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		if !dom.Dominates(entry, b) {
			t.Errorf("entry does not dominate %s", b.Name)
		}
		if !dom.Dominates(b, b) {
			t.Errorf("%s does not dominate itself", b.Name)
		}
	}
	// Dominance is antisymmetric for distinct reachable blocks.
	for _, a := range f.Blocks {
		for _, b := range f.Blocks {
			if a != b && dom.Reachable(a) && dom.Reachable(b) &&
				dom.Dominates(a, b) && dom.Dominates(b, a) {
				t.Errorf("mutual dominance: %s and %s", a.Name, b.Name)
			}
		}
	}
}

func TestLoopDetectionAndNesting(t *testing.T) {
	m := compile(t, loopNest)
	f := m.Func("main")
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)
	if len(forest.All) != 3 {
		t.Fatalf("found %d loops, want 3", len(forest.All))
	}
	if len(forest.Top) != 2 {
		t.Fatalf("found %d top-level loops, want 2 (for-nest and while)", len(forest.Top))
	}
	var outer *analysis.Loop
	for _, l := range forest.Top {
		if len(l.Children) == 1 {
			outer = l
		}
	}
	if outer == nil {
		t.Fatal("nesting not detected")
	}
	inner := outer.Children[0]
	if inner.Parent != outer || inner.Depth != outer.Depth+1 {
		t.Error("parent/depth links wrong")
	}
	for b := range inner.Blocks {
		if !outer.Blocks[b] {
			t.Error("inner loop block not contained in outer loop")
		}
	}
	if len(inner.Exits()) == 0 {
		t.Error("inner loop has no exits")
	}
}

func TestEnsurePreheaderAndExitSplit(t *testing.T) {
	m := compile(t, loopNest)
	f := m.Func("main")
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)
	loop := forest.Top[0]
	pre := analysis.EnsurePreheader(f, loop)
	if loop.Blocks[pre] {
		t.Error("preheader inside loop")
	}
	term := pre.Terminator()
	if term == nil || term.Op != ir.OpBr || term.Targets[0] != loop.Header {
		t.Error("preheader does not branch straight to header")
	}
	exits := analysis.SplitExitEdges(f, loop)
	if len(exits) == 0 {
		t.Fatal("no exit blocks created")
	}
	preds := f.Preds()
	for _, ex := range exits {
		if len(preds[ex]) != 1 {
			t.Errorf("exit block %s has %d preds, want dedicated edge", ex.Name, len(preds[ex]))
		}
	}
	f.Renumber()
	if err := f.Verify(); err != nil {
		t.Fatalf("CFG surgery broke the function: %v", err)
	}
}

func TestCallGraph(t *testing.T) {
	m := compile(t, `
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + leaf(x + 1); }
int rec(int x) { if (x <= 0) return 0; return rec(x - 1); }
int a(int x);
int b(int x) { return a(x); }
int a(int x) { if (x > 0) return b(x - 1); return 0; }
int main() { return mid(3) + rec(2) + a(1); }
`)
	cg := analysis.BuildCallGraph(m)
	leaf := m.Func("leaf")
	if len(cg.Callers[leaf]) != 2 {
		t.Errorf("leaf has %d call sites, want 2", len(cg.Callers[leaf]))
	}
	if cg.Recursive(leaf) || cg.Recursive(m.Func("mid")) {
		t.Error("non-recursive function marked recursive")
	}
	if !cg.Recursive(m.Func("rec")) {
		t.Error("self recursion not detected")
	}
	if !cg.Recursive(m.Func("a")) || !cg.Recursive(m.Func("b")) {
		t.Error("mutual recursion not detected")
	}
}

func TestPointsToSeparatesAllocations(t *testing.T) {
	m := compile(t, `
float g[8];
int main() {
	float *a = (float*)malloc(64);
	float *b = (float*)malloc(64);
	float *alias = a + 2;
	a[0] = 1.0;
	b[0] = 2.0;
	alias[0] = 3.0;
	g[0] = 4.0;
	free(a); free(b);
	return 0;
}`)
	pt := analysis.BuildPointsTo(m)
	f := m.Func("main")
	// Collect the store addresses in order.
	var addrs []ir.Value
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Float {
			addrs = append(addrs, in.Args[0])
		}
	})
	if len(addrs) != 4 {
		t.Fatalf("found %d float stores", len(addrs))
	}
	aAddr, bAddr, aliasAddr, gAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	if pt.MayAlias(aAddr, bAddr) {
		t.Error("distinct mallocs alias")
	}
	if !pt.MayAlias(aAddr, aliasAddr) {
		t.Error("pointer arithmetic alias missed")
	}
	if pt.MayAlias(aAddr, gAddr) {
		t.Error("heap aliases global")
	}
	if len(pt.PTS(gAddr)) != 1 {
		t.Errorf("global store pts size %d", len(pt.PTS(gAddr)))
	}
}

func TestPointsToThroughMemoryAndCalls(t *testing.T) {
	m := compile(t, `
float *stash;
void save(float *p) { stash = p; }
float *get() { return stash; }
int main() {
	float *a = (float*)malloc(32);
	save(a);
	float *back = get();
	back[0] = 1.0;
	a[1] = 2.0;
	free(a);
	return 0;
}`)
	pt := analysis.BuildPointsTo(m)
	f := m.Func("main")
	var stores []ir.Value
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Float {
			stores = append(stores, in.Args[0])
		}
	})
	if len(stores) != 2 {
		t.Fatalf("found %d stores", len(stores))
	}
	// The pointer that flowed through a global and two calls must alias
	// the original allocation.
	if !pt.MayAlias(stores[0], stores[1]) {
		t.Error("flow through global+calls lost the points-to fact")
	}
}

func TestModRefSummaries(t *testing.T) {
	m := compile(t, `
float *arr;
float reader() { return arr[0]; }
void writer(float v) { arr[1] = v; }
void outer(float v) { writer(v); }
int main() {
	arr = (float*)malloc(32);
	writer(1.0);
	float x = reader();
	outer(x);
	free(arr);
	return 0;
}`)
	pt := analysis.BuildPointsTo(m)
	cg := analysis.BuildCallGraph(m)
	mr := analysis.BuildModRef(m, pt, cg)

	heapObj := findHeapObject(t, pt, m)
	if !mr.FuncRef(m.Func("reader"))[heapObj] {
		t.Error("reader does not ref the heap unit")
	}
	if mr.FuncMod(m.Func("reader"))[heapObj] {
		t.Error("reader mods the heap unit")
	}
	if !mr.FuncMod(m.Func("writer"))[heapObj] {
		t.Error("writer does not mod the heap unit")
	}
	// Transitive: outer -> writer.
	if !mr.FuncMod(m.Func("outer"))[heapObj] {
		t.Error("transitive mod not propagated to outer")
	}
}

func findHeapObject(t *testing.T, pt *analysis.PointsTo, m *ir.Module) *analysis.Object {
	t.Helper()
	var obj *analysis.Object
	m.Func("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpIntrinsic && in.Name == "malloc" {
			obj = pt.ObjectOf(in)
		}
	})
	if obj == nil {
		t.Fatal("no heap object found")
	}
	return obj
}

func TestInvariance(t *testing.T) {
	m := compile(t, `
int main() {
	float *a = (float*)malloc(80);
	int n = 10;
	int bound = n * 2;
	for (int i = 0; i < 10; i++) {
		a[i] = (float)(bound + i);
	}
	free(a);
	return 0;
}`)
	f := m.Func("main")
	f.Renumber()
	dom := analysis.NewDominators(f)
	forest := analysis.FindLoops(f, dom)
	if len(forest.All) != 1 {
		t.Fatalf("loops = %d", len(forest.All))
	}
	loop := forest.All[0]
	pt := analysis.BuildPointsTo(m)
	cg := analysis.BuildCallGraph(m)
	mr := analysis.BuildModRef(m, pt, cg)
	region := analysis.Region{Loop: loop}
	eff := mr.RegionEffect(region, nil)
	inv := mr.NewInvariance(region, eff)

	// Loads of the 'a' slot and 'bound' slot inside the loop are
	// invariant (their slots are written only before the loop); loads of
	// 'i' are not; stores into a[] make loads of a[] non-invariant.
	var loadA, loadI *ir.Instr
	loop.Instrs(func(in *ir.Instr) {
		if in.Op != ir.OpLoad {
			return
		}
		slot, ok := in.Args[0].(*ir.Instr)
		if !ok || slot.Op != ir.OpAlloca {
			return
		}
		switch slot.Comment {
		case "local a":
			loadA = in
		case "local i":
			loadI = in
		}
	})
	if loadA == nil || loadI == nil {
		t.Fatal("expected loads not found")
	}
	if !inv.Invariant(loadA) {
		t.Error("pointer load should be invariant")
	}
	if inv.Invariant(loadI) {
		t.Error("induction variable load should not be invariant")
	}
	if !inv.Invariant(ir.IntConst(3)) {
		t.Error("constant not invariant")
	}
}

func TestSpillForwarding(t *testing.T) {
	m := compile(t, `
int use(int v) { return v; }
int main() {
	int once = 5;
	int twice = 1;
	twice = 2;
	int r = use(once) + use(twice);
	return r;
}`)
	f := m.Func("main")
	fwd := analysis.SpillForwarding(f)
	var onceSlot, twiceSlot *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			switch in.Comment {
			case "local once":
				onceSlot = in
			case "local twice":
				twiceSlot = in
			}
		}
	})
	if onceSlot == nil || twiceSlot == nil {
		t.Fatal("slots not found")
	}
	if v, ok := fwd[onceSlot]; !ok {
		t.Error("single-store slot not forwarded")
	} else if c, isC := v.(*ir.Const); !isC || c.Int() != 5 {
		t.Errorf("forwarded value = %v", v)
	}
	if _, ok := fwd[twiceSlot]; ok {
		t.Error("multi-store slot forwarded")
	}
}

// ---- Oracles for the sparse builders ---------------------------------
//
// sweepPointsTo and sweepModRef are the solvers BuildPointsTo and
// BuildModRef replaced: re-evaluate every instruction of the module
// until nothing changes. Same constraints, least fixed point by brute
// force; the worklist builders must give the same answers to every
// query.

// site identifies an abstract object across two analyses: the alloca or
// allocating intrinsic (*ir.Instr), or the global (*ir.Global).
type site any

type siteSet map[site]bool

func (s siteSet) addAll(t siteSet) bool {
	changed := false
	for x := range t {
		if !s[x] {
			s[x] = true
			changed = true
		}
	}
	return changed
}

type sweepPT struct {
	pts      map[ir.Value]siteSet
	contents map[site]siteSet
}

func (pt *sweepPT) set(v ir.Value) siteSet {
	s := pt.pts[v]
	if s == nil {
		s = make(siteSet)
		pt.pts[v] = s
	}
	if g, ok := v.(*ir.GlobalRef); ok {
		s[g.Global] = true
	}
	return s
}

func (pt *sweepPT) held(o site) siteSet {
	s := pt.contents[o]
	if s == nil {
		s = make(siteSet)
		pt.contents[o] = s
	}
	return s
}

func sweepPointsTo(m *ir.Module) *sweepPT {
	pt := &sweepPT{pts: make(map[ir.Value]siteSet), contents: make(map[site]siteSet)}
	transfer := func(in *ir.Instr) bool {
		changed := false
		switch in.Op {
		case ir.OpAlloca:
			changed = pt.set(in).addAll(siteSet{in: true})
		case ir.OpIntrinsic:
			switch in.Name {
			case "malloc", "calloc", "realloc", "cuda_malloc":
				changed = pt.set(in).addAll(siteSet{in: true})
			}
		case ir.OpAdd, ir.OpSub:
			for _, a := range in.Args {
				changed = pt.set(in).addAll(pt.set(a)) || changed
			}
		case ir.OpLoad:
			if in.Size == 8 {
				for o := range pt.set(in.Args[0]) {
					changed = pt.set(in).addAll(pt.held(o)) || changed
				}
			}
		case ir.OpStore:
			if in.Size == 8 {
				for o := range pt.set(in.Args[0]) {
					changed = pt.held(o).addAll(pt.set(in.Args[1])) || changed
				}
			}
		case ir.OpCall, ir.OpLaunch:
			args := in.Args
			if in.Op == ir.OpLaunch {
				args = args[2:]
			}
			for i, p := range in.Callee.Params {
				if i < len(args) {
					changed = pt.set(p).addAll(pt.set(args[i])) || changed
				}
			}
			if in.Op == ir.OpCall && in.Callee.HasResult {
				for _, b := range in.Callee.Blocks {
					if t := b.Terminator(); t != nil && t.Op == ir.OpRet && len(t.Args) > 0 {
						changed = pt.set(in).addAll(pt.set(t.Args[0])) || changed
					}
				}
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) { changed = transfer(in) || changed })
		}
	}
	return pt
}

// sites translates a set of the analysis under test.
func sites(s analysis.ObjSet) siteSet {
	out := make(siteSet)
	for o := range s {
		switch {
		case o.Global != nil:
			out[o.Global] = true
		case o.Heap != nil:
			out[o.Heap] = true
		default:
			out[o.Alloca] = true
		}
	}
	return out
}

func sameSites(a, b siteSet) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// sweepModRef is the per-instruction effect function and the sweep
// BuildModRef replaced, over the points-to analysis under test.
func sweepModRef(m *ir.Module, pt *analysis.PointsTo) (mod, ref map[*ir.Func]analysis.ObjSet) {
	mod, ref = make(map[*ir.Func]analysis.ObjSet), make(map[*ir.Func]analysis.ObjSet)
	for _, f := range m.Funcs {
		mod[f], ref[f] = make(analysis.ObjSet), make(analysis.ObjSet)
	}
	grow := func(dst, src analysis.ObjSet) bool {
		changed := false
		for o := range src {
			if !dst[o] {
				dst[o] = true
				changed = true
			}
		}
		return changed
	}
	effect := func(in *ir.Instr) (imod, iref analysis.ObjSet) {
		imod, iref = make(analysis.ObjSet), make(analysis.ObjSet)
		switch in.Op {
		case ir.OpLoad:
			grow(iref, pt.PTS(in.Args[0]))
		case ir.OpStore:
			grow(imod, pt.PTS(in.Args[0]))
		case ir.OpCall:
			if !in.Callee.Kernel {
				grow(imod, mod[in.Callee])
				grow(iref, ref[in.Callee])
			}
		case ir.OpIntrinsic:
			switch in.Name {
			case "free":
				grow(imod, pt.PTS(in.Args[0]))
			case "realloc":
				grow(iref, pt.PTS(in.Args[0]))
				grow(imod, pt.PTS(in.Args[0]))
			case "strlen", "print_str":
				grow(iref, pt.PTS(in.Args[0]))
			}
		}
		return
	}
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			f.Instrs(func(in *ir.Instr) {
				imod, iref := effect(in)
				changed = grow(mod[f], imod) || changed
				changed = grow(ref[f], iref) || changed
			})
		}
	}
	return mod, ref
}

func sameObjs(a, b analysis.ObjSet) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// checkBuilders compares the builders with the sweeps on m: the set of
// every value, the contents of every object, the summaries of every
// function, and the device flag of every site.
func checkBuilders(t *testing.T, when string, m *ir.Module) {
	t.Helper()
	pt := analysis.BuildPointsTo(m)
	want := sweepPointsTo(m)
	check := func(v ir.Value, what string) {
		if got := sites(pt.PTS(v)); !sameSites(got, want.pts[v]) && !(len(got) == 0 && len(want.pts[v]) == 0) {
			t.Errorf("%s: PTS of %s has %d objects, the sweep %d", when, what, len(got), len(want.pts[v]))
		}
	}
	for _, f := range m.Funcs {
		for _, p := range f.Params {
			check(p, f.Name+"/"+p.Name)
		}
		f.Instrs(func(in *ir.Instr) {
			if in.Op.HasResult() {
				check(in, f.Name+"/"+in.String())
			}
			for _, a := range in.Args {
				if g, ok := a.(*ir.GlobalRef); ok {
					if got := sites(pt.PTS(g)); !sameSites(got, siteSet{g.Global: true}) {
						t.Errorf("%s: PTS of @%s is not the global itself", when, g.Global.Name)
					}
				}
			}
			o := pt.ObjectOf(in)
			isSite := in.Op == ir.OpAlloca || in.Op == ir.OpIntrinsic &&
				(in.Name == "malloc" || in.Name == "calloc" || in.Name == "realloc" || in.Name == "cuda_malloc")
			if (o != nil) != isSite {
				t.Errorf("%s: ObjectOf(%s) = %v", when, in, o)
			} else if o != nil && o.Device != (in.Name == "cuda_malloc") {
				t.Errorf("%s: Device flag of %s is %v", when, in, o.Device)
			}
		})
	}
	objs := make(analysis.ObjSet)
	for v := range want.pts {
		for o := range pt.PTS(v) {
			objs[o] = true
		}
	}
	for o := range objs {
		one := analysis.ObjSet{o: true}
		var key site
		for key = range sites(one) {
		}
		if got := sites(pt.Contents(one)); !sameSites(got, want.contents[key]) && !(len(got) == 0 && len(want.contents[key]) == 0) {
			t.Errorf("%s: contents of %s has %d objects, the sweep %d", when, o.Label(), len(got), len(want.contents[key]))
		}
	}

	mr := analysis.BuildModRef(m, pt, analysis.BuildCallGraph(m))
	mod, ref := sweepModRef(m, pt)
	for _, f := range m.Funcs {
		if !sameObjs(mr.FuncMod(f), mod[f]) {
			t.Errorf("%s: FuncMod(%s) = {%s}, the sweep {%s}", when, f.Name, mr.FuncMod(f).Labels(), mod[f].Labels())
		}
		if !sameObjs(mr.FuncRef(f), ref[f]) {
			t.Errorf("%s: FuncRef(%s) = {%s}, the sweep {%s}", when, f.Name, mr.FuncRef(f).Labels(), ref[f].Labels())
		}
	}
}

// callChain makes summaries travel: effects three calls deep, a cycle,
// a pointer returned through two functions, and a global.
const callChain = `
float total[4];
float *pick(float *p, float *q, int k) { if (k > 0) return p; return q; }
float *relay(float *p, float *q, int k) { return pick(q, p, k); }
void leaf(float *p) { p[0] = p[1] + 1.0; }
void mid(float *p) { leaf(p); total[0] = p[0]; }
void top(float *p) { mid(p); }
void ping(float *p, int n);
void pong(float *p, int n) { if (n > 0) ping(p, n - 1); }
void ping(float *p, int n) { p[2] = 1.0; pong(p, n); }
int main() {
	float *a = (float*)malloc(64);
	float *b = (float*)malloc(64);
	float **cell = (float**)malloc(8);
	cell[0] = relay(a, b, 1);
	float *c = cell[0];
	top(c);
	ping(b, 3);
	for (int i = 0; i < 8; i++) a[i] = b[i] * 2.0;
	print_float(a[0] + total[0]);
	free(a); free(b);
	return 0;
}`

func TestSparseBuildersMatchSweeps(t *testing.T) {
	progs := bench.All()
	progs = append(progs, bench.Program{Name: "groups3", Source: bench.LoopGroups(3)}, bench.Program{Name: "callchain", Source: callChain})
	for _, p := range progs {
		m := compile(t, p.Source)
		checkBuilders(t, p.Name+" after irbuild", m)
		stage := func(name string, err error) {
			if err != nil {
				t.Fatalf("%s: %s: %v", p.Name, name, err)
			}
			checkBuilders(t, p.Name+" after "+name, m)
		}
		_, err := constfold.Run(m)
		stage("constfold", err)
		_, err = doall.Run(m, nil)
		stage("doall", err)
		_, err = commmgmt.Run(m, nil)
		stage("commmgmt", err)
		_, err = gluekernel.Run(m, nil)
		stage("gluekernel", err)
		_, err = allocapromo.Run(m, nil)
		stage("allocapromo", err)
		_, err = mappromo.Run(m, nil)
		stage("mappromo", err)
		_, err = overlap.Run(m, nil)
		stage("overlap", err)
	}
}

func TestPointsToOnStaleRegisterNumbers(t *testing.T) {
	// A pass may build the analysis between inserting instructions and
	// renumbering; the answers must not depend on the numbers.
	m := compile(t, `
int main() {
	float *a = (float*)malloc(64);
	float **pp = (float**)malloc(8);
	pp[0] = a;
	float *b = pp[0];
	b[1] = 2.0;
	return 0;
}`)
	main := m.Func("main")
	entry := main.Entry()
	extra := &ir.Instr{Op: ir.OpAlloca, Size: 8}
	entry.InsertBefore(extra, entry.Instrs[0])
	entry.InsertAfter(&ir.Instr{Op: ir.OpStore, Size: 8, Args: []ir.Value{extra, ir.IntConst(0)}}, extra)
	checkBuilders(t, "stale numbers", m)
}
