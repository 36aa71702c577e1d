package core_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// FuzzCompile pushes arbitrary source through the whole pipeline —
// lexer, parser, type checker, IR construction, DOALL, and every
// communication-optimization pass. The contract: Compile returns an
// error for bad input and never panics. Internal-consistency panics
// (*ir.InternalError) are recovered into typed errors by Compile
// itself; anything else escaping is a finding. A program optimized CGCM
// compiles, sync and async, must also come out as the reference
// pipeline makes it, whose passes each build their own points-to
// solution: the solution Compile carries from pass to pass must answer
// every query the passes make as a rebuild would.
//
// Seeded with the full benchmark suite so mutation starts from source
// that reaches the optimizer, not just the parser's error paths.
func FuzzCompile(f *testing.F) {
	for _, p := range bench.All() {
		f.Add(p.Source)
	}
	f.Add(vecScale)
	f.Add(triVec)
	f.Add("int main() { return 0; }")
	f.Add("int main() { for (int i = 0; i < 4; i++) { } return 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		for _, s := range []core.Strategy{core.Sequential, core.CGCMOptimized} {
			prog, err := core.Compile("fuzz.c", src, core.Options{Strategy: s})
			if err == nil && prog == nil {
				t.Fatalf("%s: nil program with nil error", s)
			}
		}
		for _, async := range []bool{false, true} {
			opts := core.Options{Strategy: core.CGCMOptimized, Async: async}
			prog, err := core.Compile("fuzz.c", src, opts)
			if err != nil {
				continue
			}
			ref, err := core.CompileReference("fuzz.c", src, opts)
			if err != nil {
				t.Fatalf("async %v: the reference pipeline fails where Compile does not: %v", async, err)
			}
			if got, want := prog.Module.String(), ref.String(); got != want {
				t.Fatalf("async %v: Compile's module differs from the reference pipeline's.\nCompile:\n%s\nreference:\n%s", async, got, want)
			}
		}
	})
}
