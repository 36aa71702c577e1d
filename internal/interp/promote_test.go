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
	ran := 0
	for _, c := range engineCases() {
		local := strings.HasPrefix(c.name, "alloca/") || strings.HasPrefix(c.name, "promote/") || strings.HasPrefix(c.name, "lower/")
		if mod, w := buildEngine(c, ctxInspector); local && c.ctxs&(1<<ctxInspector) != 0 && w.fault == "" {
			promoted := inspected(t, mod)
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
			if escaped := inspected(t, mod); promoted != escaped || promoted == 0 {
				t.Errorf("%s: inspector walked %d accesses, %d with every local in memory", c.name, promoted, escaped)
			}
			ran++
		}
	}
	if ran < 8 {
		t.Fatalf("only %d engine rows about locals ran", ran)
	}
}

// inspected runs mod in inspector mode and returns how many memory
// accesses the inspector walked.
func inspected(t *testing.T, mod *ir.Module) int64 {
	t.Helper()
	m := machine.New(machine.DefaultCostModel())
	m.KeepLog()
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
	for _, s := range trace.Spans(m.Log()) {
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

// UnpromotedLocals lowers mod and names, by function and instruction,
// every 8-byte alloca whose uses are all the address of a whole 8-byte
// load or store but some of whose accesses became memory instructions,
// matched to the lowered code through each instruction's sites entry.
// The criterion is restated here, not read from the lowering, so the
// suite test that calls it notices promotion narrowing.
func UnpromotedLocals(mod *ir.Module) []string {
	c := lowered(mod)
	pcs := emittedPCs(c)
	origs := origsOf(mod, pcs)
	var out []string
	for _, f := range mod.Funcs {
		accesses := map[*ir.Instr][]*ir.Instr{}
		escapes := map[*ir.Instr]bool{}
		f.Instrs(func(in *ir.Instr) {
			for i, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok && x.Op == ir.OpAlloca {
					whole := i == 0 && in.Size == 8 && (in.Op == ir.OpLoad || in.Op == ir.OpStore)
					escapes[x] = escapes[x] || !whole
					accesses[x] = append(accesses[x], in)
				}
			}
		})
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpAlloca || in.Size != 8 || escapes[in] {
				return
			}
			for _, a := range accesses[in] {
				if pc, ok := pcs[origs[a]]; ok && c.insts[pc].op >= opLoad8 && c.insts[pc].op <= opStoreMMA8 {
					out = append(out, f.Name+": "+in.String())
					return
				}
			}
		})
	}
	return out
}

// emittedPCs maps each origs entry that a lowered instruction other than
// an opCharge stands for (its sites entry) to that instruction's pc.
func emittedPCs(c *code) map[int32]int32 {
	pcs := make(map[int32]int32)
	for pc, i := range c.insts {
		if i.op != opCharge {
			pcs[c.sites[pc].orig] = int32(pc)
		}
	}
	return pcs
}

// origsOf maps each IR instruction of mod to its origs entry. Entries
// follow program order, one per instruction, with these extras: a fault
// for a function without blocks and for a block without terminator, and,
// after a br back to a loop test that was copied into its place (nothing
// stands for the br itself), the copies of the test's entries.
func origsOf(mod *ir.Module, pcs map[int32]int32) map[*ir.Instr]int32 {
	origs := make(map[*ir.Instr]int32)
	o := int32(0)
	for _, f := range mod.Funcs {
		if len(f.Blocks) == 0 {
			o++
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				origs[in] = o
				o++
			}
			if b.Terminator() == nil {
				o++
			}
			if br := b.Terminator(); br != nil && br.Op == ir.OpBr && len(br.Targets) == 1 && br.Targets[0].Index < b.Index {
				if _, ok := pcs[origs[br]]; !ok {
					o += int32(len(br.Targets[0].Instrs))
				}
			}
		}
	}
	return origs
}
