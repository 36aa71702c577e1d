package interp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// TestPromotedAccessesReachTheInspector: an inspector launch walks one
// access per load or store its threads execute, whether the local it
// touches lives in memory or in a frame slot. Every engine row about
// locals runs in inspector mode twice — as written, and with each
// alloca's address escaping into an unused xor so nothing is promoted —
// and the two inspections must be the same length.
func TestPromotedAccessesReachTheInspector(t *testing.T) {
	inspected := func(mod *ir.Module) int64 {
		t.Helper()
		m := machine.New(machine.DefaultCostModel())
		tr := trace.New()
		m.Observe(tr, nil, nil)
		var out bytes.Buffer
		in, err := New(mod, m, runtimelib.New(m), &out)
		if err != nil {
			t.Fatal(err)
		}
		in.Workers, in.Mode = 1, Inspector
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, s := range tr.Spans() {
			if v, ok := strings.CutPrefix(s.Name, "inspect "); ok {
				k, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				n += k
			}
		}
		return n
	}
	ran := 0
	for _, c := range engineCases() {
		local := strings.HasPrefix(c.name, "alloca/") || strings.HasPrefix(c.name, "promote/")
		if mod, w := buildEngine(c, ctxInspector); local && c.ctxs&(1<<ctxInspector) != 0 && w.fault == "" {
			promoted := inspected(mod)
			mod, _ = buildEngine(c, ctxInspector)
			var allocas []*ir.Instr
			mod.Func("t").Instrs(func(in *ir.Instr) {
				if in.Op == ir.OpAlloca {
					allocas = append(allocas, in)
				}
			})
			for _, a := range allocas {
				a.Block.InsertAfter(&ir.Instr{Op: ir.OpXor, Args: []ir.Value{a, a}}, a)
			}
			mod.Renumber()
			if escaped := inspected(mod); promoted != escaped || promoted == 0 {
				t.Errorf("%s: inspector walked %d accesses, %d with every local in memory", c.name, promoted, escaped)
			}
			ran++
		}
	}
	if ran < 8 {
		t.Fatalf("only %d engine rows about locals ran", ran)
	}
}

// UnpromotedLocals lowers mod and names, by function and instruction,
// every 8-byte alloca whose uses are all the address of a whole 8-byte
// load or store but some of whose accesses became memory instructions.
// The criterion is restated here, not read from the lowering, so the
// suite test that calls it notices promotion narrowing.
func UnpromotedLocals(mod *ir.Module) []string {
	c := lowered(mod)
	memory := make(map[int32]bool) // origs lowered to a memory instruction
	for pc, i := range c.insts {
		if i.op >= opLoad8 && i.op <= opStoreMA8 {
			memory[c.sites[pc].orig] = true
		}
	}
	var out []string
	orig := int32(0) // origs index of the instruction at hand
	for _, f := range mod.Funcs {
		accesses := map[*ir.Instr][]int32{}
		escapes := map[*ir.Instr]bool{}
		if len(f.Blocks) == 0 {
			orig++ // the function's fault
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if x, ok := a.(*ir.Instr); ok && x.Op == ir.OpAlloca {
						whole := i == 0 && in.Size == 8 && (in.Op == ir.OpLoad || in.Op == ir.OpStore)
						escapes[x] = escapes[x] || !whole
						accesses[x] = append(accesses[x], orig)
					}
				}
				orig++
			}
			if b.Terminator() == nil {
				orig++ // the fall-through fault
			}
		}
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpAlloca || in.Size != 8 || escapes[in] {
				return
			}
			for _, o := range accesses[in] {
				if memory[o] {
					out = append(out, f.Name+": "+in.String())
					return
				}
			}
		})
	}
	return out
}
