// Package analysis provides the compiler analyses CGCM's passes build on:
// dominators, natural loops, a call graph, Andersen-style points-to, and
// region mod/ref and invariance queries.
//
// The paper's key claim is that CGCM needs only weak analysis: the
// points-to analysis here is flow- and context-insensitive and entirely
// conservative, and the passes degrade gracefully (fewer promotions) when
// it cannot prove facts.
package analysis

import (
	"sort"

	"cgcm/internal/ir"
)

// Dominators computes the immediate dominator of every reachable block
// using the Cooper-Harvey-Kennedy iterative algorithm.
type Dominators struct {
	// rpo numbers the reachable blocks in reverse postorder (the entry
	// is 0).
	rpo map[*ir.Block]int
	// span is, by that number, each block's [first, last] interval in a
	// preorder numbering of the dominator tree: a dominates b exactly
	// when a's interval holds b's first.
	span [][2]int
}

// NewDominators computes the dominator tree of fn.
func NewDominators(fn *ir.Func) *Dominators {
	order := postorder(fn)
	n := len(order)
	d := &Dominators{rpo: make(map[*ir.Block]int, n), span: make([][2]int, n)}
	for i, b := range order {
		d.rpo[b] = n - 1 - i
	}
	// Predecessors by number, grouped by a counting sort over the edges.
	predOff := make([]int, n+1)
	edges := 0
	for _, b := range order {
		for _, s := range b.Succs() {
			predOff[d.rpo[s]+1]++
			edges++
		}
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	preds := make([]int, edges)
	fill := append([]int(nil), predOff[:n]...)
	for i := n - 1; i >= 0; i-- {
		from := n - 1 - i
		for _, s := range order[i].Succs() {
			to := d.rpo[s]
			preds[fill[to]] = from
			fill[to]++
		}
	}

	// idom is each block's immediate dominator, by number; the entry is
	// its own.
	const unset = -1
	idom := make([]int, n)
	for i := 1; i < n; i++ {
		idom[i] = unset
	}
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			dom := unset
			for _, p := range preds[predOff[b]:predOff[b+1]] {
				switch {
				case idom[p] == unset:
				case dom == unset:
					dom = p
				default:
					dom = intersect(idom, p, dom)
				}
			}
			if dom != unset && idom[b] != dom {
				idom[b] = dom
				changed = true
			}
		}
	}

	// A block's dominator has a smaller number, so one backward pass
	// sizes every subtree of the dominator tree and one forward pass
	// hands each block the next free interval inside its dominator's.
	size := fill // done with fill
	for i := range size {
		size[i] = 1
	}
	for b := n - 1; b > 0; b-- {
		size[idom[b]] += size[b]
	}
	next := make([]int, n)
	next[0] = 1
	d.span[0] = [2]int{0, n - 1}
	for b := 1; b < n; b++ {
		first := next[idom[b]]
		next[idom[b]] += size[b]
		next[b] = first + 1
		d.span[b] = [2]int{first, first + size[b] - 1}
	}
	return d
}

// intersect returns the nearest common ancestor of a and b in the
// dominator tree so far (a dominator's number is smaller).
func intersect(idom []int, a, b int) int {
	for a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b. A block the tree does not
// know (unreachable, or created after the tree was computed) dominates
// and is dominated by itself only.
func (d *Dominators) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	na, ok := d.rpo[a]
	nb, ok2 := d.rpo[b]
	return ok && ok2 && d.span[na][0] <= d.span[nb][0] && d.span[nb][0] <= d.span[na][1]
}

// Reachable reports whether b is reachable from entry.
func (d *Dominators) Reachable(b *ir.Block) bool {
	_, ok := d.rpo[b]
	return ok
}

// RPO returns b's reverse-postorder number (0 for a block the tree does
// not know). Collapsing a single-entry, single-exit region of the CFG
// keeps the relative numbers of the blocks that survive.
func (d *Dominators) RPO(b *ir.Block) int { return d.rpo[b] }

func postorder(fn *ir.Func) []*ir.Block {
	var order []*ir.Block
	seen := make(map[*ir.Block]bool, len(fn.Blocks))
	var visit func(*ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			visit(s)
		}
		order = append(order, b)
	}
	visit(fn.Entry())
	return order
}

// Loop is a natural loop.
type Loop struct {
	Fn     *ir.Func
	Header *ir.Block
	Blocks map[*ir.Block]bool
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
	// Children are the immediately nested loops.
	Children []*Loop
	Depth    int

	// order lists Blocks in function order, so walking the loop costs
	// the loop and not the function. Blocks spliced in later
	// (preheaders, exit blocks) are appended to the function and to
	// order alike.
	order []*ir.Block
}

// BlockList returns the loop's blocks in function order. The slice is
// the loop's own; callers must not modify it.
func (l *Loop) BlockList() []*ir.Block { return l.order }

// adopt adds a block newly appended to the function to the loop.
func (l *Loop) adopt(b *ir.Block) {
	l.Blocks[b] = true
	l.order = append(l.order, b)
}

// Contains reports whether b is inside the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// ContainsInstr reports whether in is inside the loop.
func (l *Loop) ContainsInstr(in *ir.Instr) bool { return in.Block != nil && l.Blocks[in.Block] }

// Exits returns the loop's exit edges: (inside block, outside successor).
func (l *Loop) Exits() [][2]*ir.Block {
	var exits [][2]*ir.Block
	for _, b := range l.order {
		for _, s := range b.Succs() {
			if !l.Blocks[s] {
				exits = append(exits, [2]*ir.Block{b, s})
			}
		}
	}
	return exits
}

// Instrs calls fn for every instruction in the loop, in block order.
func (l *Loop) Instrs(fn func(*ir.Instr)) {
	for _, b := range l.order {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// LoopForest is the set of natural loops of a function.
type LoopForest struct {
	Fn *ir.Func
	// Top holds the outermost loops.
	Top []*Loop
	// All holds every loop, outer before inner.
	All []*Loop
	// ByHeader indexes loops by header block.
	ByHeader map[*ir.Block]*Loop
}

// FindLoops detects the natural loops of fn from back edges in the
// dominator tree and nests them.
func FindLoops(fn *ir.Func, dom *Dominators) *LoopForest {
	preds := fn.Preds()
	forest := &LoopForest{Fn: fn, ByHeader: make(map[*ir.Block]*Loop)}
	// Find back edges: tail -> header where header dominates tail.
	for _, b := range fn.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) {
				loop := forest.ByHeader[s]
				if loop == nil {
					loop = &Loop{Fn: fn, Header: s, Blocks: map[*ir.Block]bool{s: true}}
					forest.ByHeader[s] = loop
				}
				// Collect the loop body by walking predecessors from the
				// back edge tail up to the header.
				var stack []*ir.Block
				if !loop.Blocks[b] {
					loop.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range preds[x] {
						if !loop.Blocks[p] && dom.Reachable(p) {
							loop.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Nest loops: loop A is a child of the smallest loop B (≠A) whose
	// block set contains A's header.
	var loops []*Loop
	for _, l := range forest.ByHeader {
		loops = append(loops, l)
	}
	// Order outer (bigger) before inner, tie-broken by the header's CFG
	// position. The tie-break matters: ByHeader is a map, and without it
	// same-size sibling loops would surface in random order, making
	// downstream consumers (DOALL's kernel numbering, and with it every
	// trace, profile, and baseline keyed by kernel name) nondeterministic
	// from compile to compile.
	sort.Slice(loops, func(i, j int) bool {
		if a, b := len(loops[i].Blocks), len(loops[j].Blocks); a != b {
			return a > b
		}
		return dom.rpo[loops[i].Header] < dom.rpo[loops[j].Header]
	})
	// Outer loops come first, so when a loop's turn comes the innermost
	// loop seen so far around its header is its parent (natural loops of
	// a reducible CFG nest or are disjoint), and one pass over each
	// loop's blocks replaces comparing every pair of loops.
	innermost := make(map[*ir.Block]*Loop, len(fn.Blocks))
	for _, l := range loops {
		l.Parent = innermost[l.Header]
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		} else {
			forest.Top = append(forest.Top, l)
		}
		for b := range l.Blocks {
			innermost[b] = l
		}
	}
	for _, b := range fn.Blocks {
		for l := innermost[b]; l != nil; l = l.Parent {
			l.order = append(l.order, b)
		}
	}
	for _, l := range loops {
		l.Depth = 1
		if l.Parent != nil {
			l.Depth = l.Parent.Depth + 1
		}
	}
	forest.All = loops
	return forest
}

// EnsurePreheader guarantees the loop has a unique preheader block: a
// block outside the loop whose only successor is the header and through
// which every entry edge flows. It returns that block, creating and
// splicing one in if needed. The function must be Renumbered afterwards.
func EnsurePreheader(fn *ir.Func, loop *Loop) *ir.Block {
	return EnsurePreheaderFrom(fn, loop, fn.Preds()[loop.Header])
}

// EnsurePreheaderFrom is EnsurePreheader for a caller that already
// knows the header's predecessors and does not want the function
// scanned for them.
func EnsurePreheaderFrom(fn *ir.Func, loop *Loop, headerPreds []*ir.Block) *ir.Block {
	var outside []*ir.Block
	for _, p := range headerPreds {
		if !loop.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		if t := p.Terminator(); t != nil && t.Op == ir.OpBr {
			return p
		}
	}
	pre := fn.NewBlock("preheader")
	pre.Append(&ir.Instr{Op: ir.OpBr, Targets: []*ir.Block{loop.Header}})
	for _, p := range outside {
		t := p.Terminator()
		for i, tgt := range t.Targets {
			if tgt == loop.Header {
				t.Targets[i] = pre
			}
		}
	}
	// The new preheader is outside the loop; enclosing loops that contain
	// the header's outside predecessors must adopt it.
	for anc := loop.Parent; anc != nil; anc = anc.Parent {
		anc.adopt(pre)
	}
	return pre
}

// SplitExitEdges gives the loop dedicated exit blocks: for every edge from
// inside the loop to an outside block, a fresh block is spliced in. It
// returns the dedicated exit blocks (one per original exit edge).
func SplitExitEdges(fn *ir.Func, loop *Loop) []*ir.Block {
	var exits []*ir.Block
	for _, b := range loop.order {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for i, s := range t.Targets {
			if loop.Blocks[s] {
				continue
			}
			ex := fn.NewBlock("loopexit")
			ex.Append(&ir.Instr{Op: ir.OpBr, Targets: []*ir.Block{s}})
			t.Targets[i] = ex
			for anc := loop.Parent; anc != nil; anc = anc.Parent {
				anc.adopt(ex)
			}
			exits = append(exits, ex)
		}
	}
	return exits
}
