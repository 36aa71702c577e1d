package analysis

import "cgcm/internal/ir"

// SlotUse records how one stack slot (an alloca) is used in its function.
type SlotUse struct {
	// Direct lists the loads from and stores to the slot itself, in
	// function order (so within one block, in execution order). An
	// entry whose Block is nil has left the function and does not count.
	Direct []*ir.Instr
	// Escaped is set once the slot's address is used any other way
	// (arithmetic, stored as a value, passed on), after which something
	// else may alias it.
	Escaped bool
}

// SlotIndex maps every stack slot a function uses to its uses. It is
// built by one scan, and a pass that rewrites the function can keep it
// in step with Add instead of scanning again.
type SlotIndex map[*ir.Instr]*SlotUse

// IndexSlots indexes the stack-slot uses of f.
func IndexSlots(f *ir.Func) SlotIndex {
	idx := make(SlotIndex)
	f.Instrs(idx.Add)
	return idx
}

// Add records the slot uses of in. An instruction added after the index
// was built must be the last one so far to use its slots in its block
// (true of code appended in front of a block's terminator), which keeps
// Direct in execution order.
func (idx SlotIndex) Add(in *ir.Instr) {
	for i, a := range in.Args {
		slot, ok := a.(*ir.Instr)
		if !ok || slot.Op != ir.OpAlloca {
			continue
		}
		u := idx[slot]
		if u == nil {
			u = &SlotUse{}
			idx[slot] = u
		}
		if i == 0 && (in.Op == ir.OpLoad || in.Op == ir.OpStore) {
			u.Direct = append(u.Direct, in)
		} else {
			u.Escaped = true
		}
	}
}

// Forwarded returns the value every load of the slot reads, when that
// is decidable the cheap way: the slot never escapes and is written by
// exactly one store, which dominates all its loads. Otherwise nil.
func (u *SlotUse) Forwarded(dom *Dominators) ir.Value {
	if u.Escaped {
		return nil
	}
	var st *ir.Instr
	at := 0
	for i, in := range u.Direct {
		if in.Block == nil || in.Op != ir.OpStore {
			continue
		}
		if st != nil {
			return nil
		}
		st, at = in, i
	}
	if st == nil {
		return nil
	}
	for i, ld := range u.Direct {
		if ld.Block == nil || ld.Op != ir.OpLoad {
			continue
		}
		if ld.Block == st.Block {
			// Same block: the store must come first.
			if i < at {
				return nil
			}
		} else if !dom.Dominates(st.Block, ld.Block) {
			return nil
		}
	}
	return st.Args[1]
}

// SpillForwarding computes, for every stack slot in f that is only ever
// used as a direct load/store address and written by exactly one store
// that dominates all its loads, the value that store wrote. Loads of such
// slots are pure copies of that value — the front end's parameter spills
// and single-assignment locals all match. Passes use this as a
// lightweight stand-in for mem2reg when chasing pointer values.
func SpillForwarding(f *ir.Func) map[*ir.Instr]ir.Value {
	dom := NewDominators(f)
	fwd := make(map[*ir.Instr]ir.Value)
	for slot, u := range IndexSlots(f) {
		if v := u.Forwarded(dom); v != nil {
			fwd[slot] = v
		}
	}
	return fwd
}

// Resolve chases loads of forwarded spill slots (fwd is SpillForwarding's
// map for v's function) to the value behind them.
func Resolve(v ir.Value, fwd map[*ir.Instr]ir.Value) ir.Value {
	for {
		ld, ok := v.(*ir.Instr)
		if !ok || ld.Op != ir.OpLoad {
			return v
		}
		slot, ok := ld.Args[0].(*ir.Instr)
		if !ok {
			return v
		}
		val, ok := fwd[slot]
		if !ok {
			return v
		}
		v = val
	}
}

// Contents returns the union of the content sets of the objects in s
// (what the doubly-indirect elements of those units point to).
func (pt *PointsTo) Contents(s ObjSet) ObjSet {
	out := make(ObjSet)
	for o := range s {
		pt.contents[o].addTo(out)
	}
	return out
}
