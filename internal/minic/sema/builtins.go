package sema

import (
	"cgcm/internal/ir"
	"cgcm/internal/minic/types"
)

// Builtin describes a function provided by the execution environment
// rather than by user code: heap management, math, deterministic random
// numbers, printing, and the GPU thread-index intrinsic. It is the typed
// view of one source-callable row of ir.Intrinsics.
type Builtin struct {
	Name   string
	Result *types.Type
	Params []*types.Type
	// GPUOnly marks builtins available only inside kernels (tid, ntid).
	GPUOnly bool
	// CPUOnly marks builtins unavailable inside kernels (heap, printing).
	CPUOnly bool
}

// Builtins is the table of environment-provided functions, keyed by name:
// every row of ir.Intrinsics a program can call (the run-time library's
// rows are reachable only from pass-inserted code).
var Builtins = func() map[string]*Builtin {
	typeOf := [...]*types.Type{
		ir.KVoid:  types.VoidType,
		ir.KInt:   types.IntType,
		ir.KFloat: types.FloatType,
		ir.KPtr:   types.PointerTo(types.VoidType),
		ir.KStr:   types.PointerTo(types.CharType),
	}
	m := make(map[string]*Builtin, len(ir.Intrinsics))
	for i := range ir.Intrinsics {
		row := &ir.Intrinsics[i]
		if row.Verb.Op != 0 {
			continue
		}
		b := &Builtin{
			Name:    row.Name,
			Result:  typeOf[row.Result],
			GPUOnly: row.Place == ir.KernelOnly,
			CPUOnly: row.Place == ir.CPUOnly,
		}
		for _, k := range row.Params {
			b.Params = append(b.Params, typeOf[k])
		}
		m[row.Name] = b
	}
	return m
}()

// IsBuiltin reports whether name denotes a builtin function.
func IsBuiltin(name string) bool {
	_, ok := Builtins[name]
	return ok
}
