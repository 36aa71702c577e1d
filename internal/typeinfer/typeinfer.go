// Package typeinfer implements CGCM's use-based type inference (§4).
//
// The C type system is unreliable — any argument reaching a kernel may
// have been cast — so the compiler "ignores these types and instead
// infers type based on usage within the GPU function": a value that flows
// to the address operand of a load or store (through additions, casts,
// and other operations) is a pointer; if a loaded value flows to another
// memory operation, the pointer operand of that load is a double pointer.
//
// Because our IR spills parameters to stack slots, inference additionally
// forwards values through kernel-local slots (a store/load pair on a
// kernel-internal alloca is a copy, not an indirection level). The
// distinction is made with points-to facts: accesses whose address can
// only be a kernel-local alloca are copies; anything else is a real
// memory access.
package typeinfer

import (
	"fmt"

	"cgcm/internal/analysis"
	"cgcm/internal/ir"
)

// Classification is the inference result for one kernel.
type Classification struct {
	Kernel *ir.Func
	// ParamDepth maps each parameter to its inferred indirection depth:
	// 0 scalar, 1 pointer, 2 double pointer.
	ParamDepth map[*ir.Param]int
	// GlobalDepth maps each global the kernel uses to 1 or 2.
	GlobalDepth map[*ir.Global]int
}

// Depth returns the inferred depth of the i'th parameter.
func (c *Classification) Depth(i int) int { return c.ParamDepth[c.Kernel.Params[i]] }

// Error reports a violation of CGCM's restrictions inside a kernel.
type Error struct {
	Kernel string
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("typeinfer: kernel %s: %s", e.Kernel, e.Msg) }

// Infer classifies the live-in values of kernel k. pt provides points-to
// facts for the local/external access distinction and the pointer-store
// restriction check.
func Infer(k *ir.Func, pt *analysis.PointsTo) (*Classification, error) {
	inf := &inferencer{
		k:        k,
		pt:       pt,
		localObj: make(map[*analysis.Object]bool),
		ptr:      make(map[ir.Value]bool),
		dbl:      make(map[ir.Value]bool),
		copySrc:  make(map[ir.Value][]ir.Value),
	}
	// Kernel-internal allocas are local scratch.
	k.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			if o := pt.ObjectOf(in); o != nil {
				inf.localObj[o] = true
			}
		}
	})
	// Build copy edges through local slots: every local load may observe
	// every value stored to an aliasing local slot.
	var localLoads []*ir.Instr
	k.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && in.Size == 8 && inf.isLocalAccess(in.Args[0]) {
			localLoads = append(localLoads, in)
		}
	})
	k.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Size == 8 && inf.isLocalAccess(in.Args[0]) {
			for _, ld := range localLoads {
				if pt.MayAlias(in.Args[0], ld.Args[0]) {
					inf.copySrc[ld] = append(inf.copySrc[ld], in.Args[1])
				}
			}
		}
	})
	// Round 1: mark pointers from external access addresses.
	k.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			if !inf.isLocalAccess(in.Args[0]) {
				inf.markChain(in.Args[0], inf.ptr)
			}
		case ir.OpIntrinsic:
			// A builtin that reads through an argument makes it a pointer.
			if row := in.Intrinsic(); row != nil {
				for _, i := range row.Ref {
					if i < len(in.Args) {
						inf.markChain(in.Args[i], inf.ptr)
					}
				}
			}
		}
	})
	// Round 2: external loads whose result is itself a pointer make their
	// own address chain doubly indirect.
	k.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && in.Size == 8 && !inf.isLocalAccess(in.Args[0]) && inf.ptr[in] {
			inf.markChain(in.Args[0], inf.dbl)
		}
	})
	// Depth-3 restriction (§2.3): a load whose *result* is already a
	// double pointer implies three degrees of indirection behind the
	// access that consumed it.
	var deep error
	k.Instrs(func(in *ir.Instr) {
		if deep == nil && in.Op == ir.OpLoad && !inf.isLocalAccess(in.Args[0]) && inf.dbl[in] {
			deep = &Error{Kernel: k.Name, Msg: "pointer with three or more degrees of indirection"}
		}
	})
	if deep != nil {
		return nil, deep
	}
	// Restriction check: GPU functions may not store pointers to
	// non-local memory ("it does not allow pointers to be stored in GPU
	// functions").
	var violation error
	k.Instrs(func(in *ir.Instr) {
		if violation != nil {
			return
		}
		if in.Op == ir.OpStore && !inf.isLocalAccess(in.Args[0]) &&
			inf.isPointerValue(in.Args[1], make(map[ir.Value]bool)) {
			violation = &Error{Kernel: k.Name, Msg: "kernel stores a pointer to memory (unsupported by CGCM)"}
		}
	})
	if violation != nil {
		return nil, violation
	}
	// Assemble the classification.
	c := &Classification{
		Kernel:      k,
		ParamDepth:  make(map[*ir.Param]int),
		GlobalDepth: make(map[*ir.Global]int),
	}
	for _, p := range k.Params {
		switch {
		case inf.dbl[p]:
			c.ParamDepth[p] = 2
		case inf.ptr[p]:
			c.ParamDepth[p] = 1
		default:
			c.ParamDepth[p] = 0
		}
	}
	k.Instrs(func(in *ir.Instr) {
		for _, a := range in.Args {
			if g, ok := a.(*ir.GlobalRef); ok {
				if inf.dbl[a] || c.GlobalDepth[g.Global] == 2 {
					c.GlobalDepth[g.Global] = 2
				} else if c.GlobalDepth[g.Global] == 0 {
					c.GlobalDepth[g.Global] = 1
				}
			}
		}
	})
	return c, nil
}

type inferencer struct {
	k        *ir.Func
	pt       *analysis.PointsTo
	localObj map[*analysis.Object]bool
	ptr      map[ir.Value]bool
	dbl      map[ir.Value]bool
	copySrc  map[ir.Value][]ir.Value
}

// isLocalAccess reports whether an address can only reference
// kernel-local scratch.
func (inf *inferencer) isLocalAccess(addr ir.Value) bool {
	pts := inf.pt.PTS(addr)
	if len(pts) == 0 {
		return false
	}
	for o := range pts {
		if !inf.localObj[o] {
			return false
		}
	}
	return true
}

// markChain walks backward from an address expression marking base values
// in the given set. The walk follows the base position of additions and
// subtractions (offset operands are scaled index computations — OpMul
// results or constants — and are skipped), and forwards through
// kernel-local copy slots.
func (inf *inferencer) markChain(v ir.Value, set map[ir.Value]bool) {
	if set[v] {
		return
	}
	set[v] = true
	in, ok := v.(*ir.Instr)
	if !ok {
		return
	}
	switch in.Op {
	case ir.OpAdd:
		inf.markChain(in.Args[0], set)
		if !isOffset(in.Args[1]) {
			inf.markChain(in.Args[1], set)
		}
	case ir.OpSub:
		inf.markChain(in.Args[0], set)
	case ir.OpLoad:
		if inf.isLocalAccess(in.Args[0]) {
			// Copy through a local slot: the marked property belongs to
			// the stored values.
			for _, src := range inf.copySrc[in] {
				inf.markChain(src, set)
			}
		}
		// External loads: round 2 handles double indirection.
	}
}

// isPointerValue reports whether v is known to carry a pointer: it was
// marked by address-chain analysis, or it is a copy (through local slots)
// of a marked value.
func (inf *inferencer) isPointerValue(v ir.Value, seen map[ir.Value]bool) bool {
	if seen[v] {
		return false
	}
	seen[v] = true
	if inf.ptr[v] {
		return true
	}
	if ld, ok := v.(*ir.Instr); ok && ld.Op == ir.OpLoad && inf.isLocalAccess(ld.Args[0]) {
		for _, src := range inf.copySrc[ld] {
			if inf.isPointerValue(src, seen) {
				return true
			}
		}
	}
	return false
}

// isOffset reports whether a value is structurally an index offset rather
// than a base (constants and scaled multiplications).
func isOffset(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Const:
		return true
	case *ir.Instr:
		return x.Op == ir.OpMul || x.Op == ir.OpShl
	}
	return false
}
