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
	fn   *ir.Func
	idom map[*ir.Block]*ir.Block
	// rpo numbers blocks in reverse postorder.
	rpo map[*ir.Block]int
}

// NewDominators computes the dominator tree of fn.
func NewDominators(fn *ir.Func) *Dominators {
	d := &Dominators{
		fn:   fn,
		idom: make(map[*ir.Block]*ir.Block),
		rpo:  make(map[*ir.Block]int),
	}
	order := postorder(fn)
	// Reverse postorder numbering.
	for i := len(order) - 1; i >= 0; i-- {
		d.rpo[order[i]] = len(order) - 1 - i
	}
	preds := fn.Preds()
	entry := fn.Entry()
	d.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range preds[b] {
				if d.idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *Dominators) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for d.rpo[a] > d.rpo[b] {
			a = d.idom[a]
		}
		for d.rpo[b] > d.rpo[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (d *Dominators) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Reachable reports whether b is reachable from entry.
func (d *Dominators) Reachable(b *ir.Block) bool { return d.idom[b] != nil }

func postorder(fn *ir.Func) []*ir.Block {
	var order []*ir.Block
	seen := make(map[*ir.Block]bool)
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
}

// Contains reports whether b is inside the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// ContainsInstr reports whether in is inside the loop.
func (l *Loop) ContainsInstr(in *ir.Instr) bool { return in.Block != nil && l.Blocks[in.Block] }

// Exits returns the loop's exit edges: (inside block, outside successor).
func (l *Loop) Exits() [][2]*ir.Block {
	var exits [][2]*ir.Block
	for b := range l.Blocks {
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
	for _, b := range l.Fn.Blocks {
		if !l.Blocks[b] {
			continue
		}
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
	// block set strictly contains A's header.
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
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l || !m.Blocks[l.Header] {
				continue
			}
			if best == nil || len(m.Blocks) < len(best.Blocks) {
				best = m
			}
		}
		l.Parent = best
		if best != nil {
			best.Children = append(best.Children, l)
		} else {
			forest.Top = append(forest.Top, l)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	forest.All = loops
	return forest
}

// EnsurePreheader guarantees the loop has a unique preheader block: a
// block outside the loop whose only successor is the header and through
// which every entry edge flows. It returns that block, creating and
// splicing one in if needed. The function must be Renumbered afterwards.
func EnsurePreheader(fn *ir.Func, loop *Loop) *ir.Block {
	preds := fn.Preds()
	var outside []*ir.Block
	for _, p := range preds[loop.Header] {
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
		anc.Blocks[pre] = true
	}
	return pre
}

// SplitExitEdges gives the loop dedicated exit blocks: for every edge from
// inside the loop to an outside block, a fresh block is spliced in. It
// returns the dedicated exit blocks (one per original exit edge).
func SplitExitEdges(fn *ir.Func, loop *Loop) []*ir.Block {
	var exits []*ir.Block
	for _, b := range fn.Blocks {
		if !loop.Blocks[b] {
			continue
		}
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
				anc.Blocks[ex] = true
			}
			exits = append(exits, ex)
		}
	}
	return exits
}
