package doall

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
)

// funcState is what the driver knows about one function: analyses
// computed once, and facts read off the IR that outline keeps in step
// with what it rewrites, so that no verdict has to scan the function.
type funcState struct {
	d   *driver
	f   *ir.Func
	dom *analysis.Dominators
	// top are the outermost loops still to be visited, in visit order.
	top []*node
	// preds are the CFG predecessors of the blocks f had when the state
	// was built and still has (a preheader made since has no entry).
	preds map[*ir.Block][]*ir.Block
	// slots indexes the uses of every stack slot of f.
	slots analysis.SlotIndex
	// uses counts, by register number, the operand positions that name
	// each value f had when the state was built; inside is liveOut's
	// scratch, all zero between calls. Instructions outline adds carry
	// register number -1 until the function is renumbered.
	uses, inside []int32
	// gone are the blocks that left f with outlined loops; sweep drops
	// them from its block list.
	gone map[*ir.Block]bool
	// blocks is how many blocks f had when the state was built, and
	// grew how many the latest outline added.
	blocks, grew int
}

// newFuncState analyses f and lays out its loop forest for the driver.
func (d *driver) newFuncState(f *ir.Func) *funcState {
	f.Renumber()
	fs := &funcState{d: d, f: f, dom: analysis.NewDominators(f), blocks: len(f.Blocks)}
	forest := analysis.FindLoops(f, fs.dom)
	if len(forest.All) == 0 {
		return fs
	}
	fs.preds = f.Preds()
	fs.slots = make(analysis.SlotIndex)
	fs.uses = make([]int32, f.NumRegs)
	fs.inside = make([]int32, f.NumRegs)
	fs.gone = make(map[*ir.Block]bool)
	f.Instrs(fs.added)

	// FindLoops lists outer loops before inner ones and siblings in
	// visit order.
	nodes := make(map[*analysis.Loop]*node, len(forest.All))
	for _, l := range forest.All {
		n := &node{loop: l, parent: nodes[l.Parent], size: len(l.Blocks), rpo: fs.dom.RPO(l.Header), line: loopLine(l)}
		nodes[l] = n
		if n.parent == nil {
			fs.top = append(fs.top, n)
		} else {
			n.parent.kids = append(n.parent.kids, n)
		}
		for a := n; a != nil; a = a.parent {
			a.pending++
		}
	}
	return fs
}

// added enters an instruction that is now part of f into the indexes.
func (fs *funcState) added(in *ir.Instr) {
	fs.slots.Add(in)
	for _, a := range in.Args {
		if x, ok := a.(*ir.Instr); ok && x.Reg >= 0 {
			fs.uses[x.Reg]++
		}
	}
}

// sweep drops from f the blocks that left it with outlined loops.
func (fs *funcState) sweep() {
	if len(fs.gone) == 0 {
		return
	}
	kept := fs.f.Blocks[:0]
	for _, b := range fs.f.Blocks {
		if !fs.gone[b] {
			kept = append(kept, b)
		}
	}
	fs.f.Blocks = kept
}

// plan is what judge learned about a DOALL loop that outline needs.
type plan struct {
	iv   *ivInfo
	exit *ir.Block
	inv  *analysis.Invariance
}

// judge decides whether loop n can become a kernel launch. It returns
// the plan for outlining it, or nil and the reason. Its cost is the
// loop's size (plus the uses of the slots its induction variables live
// in), not the function's.
func (fs *funcState) judge(n *node) (*plan, string) {
	l := n.loop
	iv, why := fs.recognizeIV(l)
	if iv == nil {
		return nil, why
	}
	exitTarget, why := singleExit(l)
	if exitTarget == nil {
		return nil, why
	}
	n.screened = true
	if n.bad, why = screenBody(l); n.bad != nil {
		return nil, why
	}

	region := analysis.Region{Loop: l}
	eff := fs.d.mr.RegionEffect(region, nil)
	inv := fs.d.mr.NewInvariance(region, eff)
	if !inv.Invariant(iv.hi) {
		return nil, "loop bound is not invariant"
	}

	cx := &affineCtx{
		loop:    l,
		ivSlot:  iv.slot,
		inner:   fs.discoverInnerIVs(l),
		inv:     inv,
		forward: fs.forwarding(l),
	}
	if why := fs.checkDependences(l, iv, cx); why != "" {
		return nil, why
	}
	if fs.liveOut(l) {
		return nil, "loop produces register live-outs"
	}
	return &plan{iv: iv, exit: exitTarget, inv: inv}, ""
}

// liveOut reports whether a register value defined in the loop is used
// outside it: it is when the function uses it more often than the loop
// does.
func (fs *funcState) liveOut(l *analysis.Loop) bool {
	l.Instrs(func(in *ir.Instr) {
		for _, a := range in.Args {
			if x, ok := a.(*ir.Instr); ok && l.ContainsInstr(x) {
				fs.inside[x.Reg]++
			}
		}
	})
	out := false
	l.Instrs(func(in *ir.Instr) {
		if in.Op.HasResult() {
			out = out || fs.uses[in.Reg] != fs.inside[in.Reg]
			fs.inside[in.Reg] = 0
		}
	})
	return out
}

// forwarding finds loop-private scalar slots with a single dominating
// store, usable for address forwarding (a lightweight mem2reg).
func (fs *funcState) forwarding(l *analysis.Loop) map[*ir.Instr]ir.Value {
	fwd := make(map[*ir.Instr]ir.Value)
	l.Instrs(func(in *ir.Instr) {
		if in.Op != ir.OpAlloca {
			return
		}
		if use := fs.slots[in]; use != nil {
			if v := use.Forwarded(fs.dom); v != nil {
				fwd[in] = v
			}
		}
	})
	return fwd
}

// outline carves the loop body into a fresh kernel, replaces the loop
// with a launch, and returns the launch. The loop's blocks stay listed
// in f until sweep; everything else the driver knows about f is brought
// up to date here.
func (fs *funcState) outline(l *analysis.Loop, p *plan) *ir.Instr {
	f, m := fs.f, fs.d.m
	iv, inv := p.iv, p.inv
	blocks := len(f.Blocks)
	pre := analysis.EnsurePreheaderFrom(f, l, fs.preds[l.Header])
	fs.grew = len(f.Blocks) - blocks
	if fs.grew > 0 {
		// A new preheader sits where sweep will leave it, after every
		// older block.
		pre.Index = blocks
	}
	// The loop header's source line stands in for the whole launch site:
	// the launch, its setup code, and the kernel's synthesized prologue all
	// inherit it so the profiler can charge them to the original loop.
	hline := int32(0)
	for _, in := range l.Header.Instrs {
		if in.Line != 0 {
			hline = in.Line
			break
		}
	}
	first := len(pre.Instrs) - 1 // where the code inserted below starts
	insert := func(in *ir.Instr) *ir.Instr {
		if in.Line == 0 {
			in.Line = hline
		}
		in.Reg = -1
		pre.InsertBefore(in, pre.Terminator())
		return in
	}
	// Bound value available in the preheader: clone its def chain when it
	// is computed inside the loop (it is invariant, so the clone computes
	// the same value).
	hiVal := iv.hi
	if hin, ok := iv.hi.(*ir.Instr); ok && l.ContainsInstr(hin) {
		remap := make(map[ir.Value]ir.Value)
		for _, link := range ir.DefChain(hin) {
			if !l.ContainsInstr(link) {
				continue
			}
			c := ir.CloneInstr(link, remap)
			c.Comment = "hoisted loop bound"
			insert(c)
			remap[link] = c
		}
		hiVal = remap[hin]
	}

	lo := insert(&ir.Instr{Op: ir.OpLoad, Args: []ir.Value{iv.slot}, Size: 8, Comment: "doall lo"})
	hiEx := ir.Value(hiVal)
	if iv.hiAdd != 0 {
		hiEx = insert(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{hiVal, ir.IntConst(iv.hiAdd)}})
	}
	diff := insert(&ir.Instr{Op: ir.OpSub, Args: []ir.Value{hiEx, lo}})
	num := insert(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{diff, ir.IntConst(iv.step - 1)}})
	rawTrip := insert(&ir.Instr{Op: ir.OpDiv, Args: []ir.Value{num, ir.IntConst(iv.step)}})
	trip := insert(&ir.Instr{Op: ir.OpIntrinsic, Name: ir.Intrinsics[ir.InImax].Name,
		Args: []ir.Value{rawTrip, ir.IntConst(0)}, Comment: "doall trip"})

	// Build the kernel.
	fs.d.kernels++
	k := &ir.Func{Name: fmt.Sprintf("%s__doall%d", f.Name, fs.d.kernels), Kernel: true}
	m.AddFunc(k)
	pLo := &ir.Param{Fn: k, Index: 0, Name: "lo"}
	pHi := &ir.Param{Fn: k, Index: 1, Name: "hi"}
	k.Params = []*ir.Param{pLo, pHi}

	entry := k.NewBlock("entry")
	retBlk := k.NewBlock("ret")
	retBlk.Append(&ir.Instr{Op: ir.OpRet})

	tid := entry.Append(&ir.Instr{Op: ir.OpIntrinsic, Name: ir.Intrinsics[ir.InTid].Name})
	offs := entry.Append(&ir.Instr{Op: ir.OpMul, Args: []ir.Value{tid, ir.IntConst(iv.step)}})
	iVal := entry.Append(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{pLo, offs}, Comment: "iteration index"})
	guard := entry.Append(&ir.Instr{Op: ir.OpLt, Args: []ir.Value{iVal, pHi}})

	// Clone the loop blocks.
	loopBlocks := l.BlockList()
	blockMap := make(map[*ir.Block]*ir.Block, len(loopBlocks))
	for _, b := range loopBlocks {
		blockMap[b] = k.NewBlock(b.Name)
	}
	entry.Append(&ir.Instr{Op: ir.OpCondBr, Args: []ir.Value{guard},
		Targets: []*ir.Block{blockMap[l.Header], retBlk}})

	valueMap := make(map[ir.Value]ir.Value)
	liveIns := make(map[ir.Value]*ir.Param)
	var liveInVals []ir.Value

	// Invariant loads of outside slots (array base pointers, scalar
	// bounds) are hoisted to the preheader and passed by value, so the
	// kernel receives the pointer itself rather than the address of the
	// stack slot holding it. The dependence test already proved nothing
	// in the loop writes these slots.
	hoistedLoads := make(map[ir.Value]*ir.Instr)
	hoistLoad := func(in *ir.Instr) *ir.Instr {
		if c, ok := hoistedLoads[in.Args[0]]; ok {
			return c
		}
		c := ir.CloneInstr(in, nil)
		c.Comment = "hoisted invariant load"
		insert(c)
		hoistedLoads[in.Args[0]] = c
		return c
	}
	isOutside := func(v ir.Value) bool {
		switch x := v.(type) {
		case *ir.Const, *ir.GlobalRef, *ir.Param:
			return true
		case *ir.Instr:
			return !l.ContainsInstr(x)
		}
		return false
	}

	// Pass 1: clone instructions (arguments patched in pass 2).
	for _, b := range loopBlocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			if in == iv.incr {
				continue // the induction update disappears
			}
			if in.Op == ir.OpLoad && in.Args[0] == iv.slot {
				valueMap[in] = iVal // reads of the IV become the thread's index
				continue
			}
			if in.Op == ir.OpLoad && isOutside(in.Args[0]) && inv.Invariant(in) {
				pre := hoistLoad(in)
				valueMap[in] = liveInParam(k, pre, liveIns, &liveInVals)
				continue
			}
			c := ir.CloneInstr(in, nil)
			fs.d.pt.Replace(in, c)
			nb.Append(c)
			valueMap[in] = c
		}
		// Blocks whose only remaining need is a terminator (e.g. a latch
		// holding just the increment) still must branch; handled below.
	}
	// Pass 2: patch operands and targets.
	for _, b := range loopBlocks {
		nb := blockMap[b]
		for _, c := range nb.Instrs {
			for i, a := range c.Args {
				switch x := a.(type) {
				case *ir.Instr:
					if mapped, ok := valueMap[x]; ok {
						c.Args[i] = mapped
					} else if !l.ContainsInstr(x) {
						c.Args[i] = liveInParam(k, x, liveIns, &liveInVals)
					}
				case *ir.Param:
					c.Args[i] = liveInParam(k, x, liveIns, &liveInVals)
				}
			}
			for i, t := range c.Targets {
				if t == l.Header {
					c.Targets[i] = retBlk // back edge: iteration done
				} else if nt, ok := blockMap[t]; ok {
					c.Targets[i] = nt
				} else {
					// An exit target: only the header exits (validated), and
					// its clone is bypassed... but the header's branch is
					// cloned too; send it into the body.
					c.Targets[i] = retBlk
				}
			}
		}
		if nb.Terminator() == nil {
			// Terminator was the increment-adjacent branch? Cannot happen:
			// terminators are never the IV store. Defensive fallthrough.
			nb.Append(&ir.Instr{Op: ir.OpRet})
		}
	}
	// The cloned header still ends with the loop's conditional branch,
	// now testing a stale comparison. Its true edge enters the body and
	// its false edge (the exit) was rewritten to retBlk above, which is
	// semantically "this thread is done" — correct but wasteful; the
	// entry guard already filtered. Leave it: the comparison is correct
	// for this iteration (i < hi holds), so the branch always takes the
	// body edge.

	// Replace the loop in f: preheader now computes the launch and jumps
	// straight to the exit target.
	grid := insert(&ir.Instr{Op: ir.OpDiv,
		Args: []ir.Value{
			insert(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{trip, ir.IntConst(BlockDim - 1)}}),
			ir.IntConst(BlockDim),
		}})
	launchArgs := []ir.Value{grid, ir.IntConst(BlockDim), lo, hiEx}
	launchArgs = append(launchArgs, liveInVals...)
	launch := insert(&ir.Instr{Op: ir.OpLaunch, Callee: k, Args: launchArgs,
		Comment: "DOALL parallelized loop"})

	// The induction variable's final value, as the loop would have left it.
	finOff := insert(&ir.Instr{Op: ir.OpMul, Args: []ir.Value{trip, ir.IntConst(iv.step)}})
	fin := insert(&ir.Instr{Op: ir.OpAdd, Args: []ir.Value{lo, finOff}})
	insert(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{iv.slot, fin}, Size: 8,
		Comment: "final induction value"})

	pre.Terminator().Targets[0] = p.exit

	// Synthesized kernel instructions (entry guard, return block) have no
	// line of their own; charge them to the loop header.
	k.Instrs(func(in *ir.Instr) {
		if in.Line == 0 {
			in.Line = hline
		}
	})

	k.Renumber()

	// The loop has left f, and with it the unreachable blocks that
	// branch into it (the front end leaves a dead block behind every
	// continue and break; it belongs to no loop, but it cannot outlive
	// its target). Their instructions no longer use anything, the code
	// inserted above does, and the exit target is now entered from the
	// preheader.
	left := append([]*ir.Block(nil), loopBlocks...)
	for i := 0; i < len(left); i++ {
		fs.gone[left[i]] = true
		for _, from := range fs.preds[left[i]] {
			// (A preheader made here is unknown to the tree, not dead.)
			if !fs.gone[from] && from.Index < fs.blocks && !fs.dom.Reachable(from) {
				fs.gone[from] = true
				left = append(left, from)
			}
		}
	}
	for _, b := range left {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok && x.Reg >= 0 && !fs.gone[x.Block] {
					fs.uses[x.Reg]--
				}
			}
		}
		for _, to := range b.Succs() {
			if !fs.gone[to] {
				fs.preds[to] = without(fs.preds[to], b)
			}
		}
	}
	for _, b := range left {
		for _, in := range b.Instrs {
			in.Block = nil
		}
	}
	for _, in := range pre.Instrs[first : len(pre.Instrs)-1] {
		fs.added(in)
		fs.d.pt.Derive(in)
	}
	fs.d.pt.Derive(iVal) // once the launch has given lo its set
	fs.preds[p.exit] = append(fs.preds[p.exit], pre)
	return launch
}

// without returns list with every occurrence of b removed, in place.
func without(list []*ir.Block, b *ir.Block) []*ir.Block {
	kept := list[:0]
	for _, x := range list {
		if x != b {
			kept = append(kept, x)
		}
	}
	return kept
}

// liveInParam returns (creating if needed) the kernel parameter carrying
// the outside value v.
func liveInParam(k *ir.Func, v ir.Value, seen map[ir.Value]*ir.Param, order *[]ir.Value) *ir.Param {
	if p, ok := seen[v]; ok {
		return p
	}
	p := &ir.Param{
		Fn:    k,
		Index: len(k.Params),
		Name:  fmt.Sprintf("in%d", len(k.Params)-2),
		Float: v.IsFloat(),
	}
	k.Params = append(k.Params, p)
	seen[v] = p
	*order = append(*order, v)
	return p
}
