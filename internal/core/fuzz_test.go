package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cgcm/internal/core"
)

// exprGen generates random integer arithmetic expressions over a fixed
// set of variables, together with a Go evaluator producing the expected
// value — a differential test of the whole stack (parser, sema, irbuild,
// constant folding, interpreter).
type exprGen struct {
	rng  *rand.Rand
	vars map[string]int64
}

func (g *exprGen) gen(depth int) (src string, val int64) {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			v := int64(g.rng.Intn(100))
			return fmt.Sprintf("%d", v), v
		default:
			names := []string{"a", "b", "c", "d"}
			n := names[g.rng.Intn(len(names))]
			return n, g.vars[n]
		}
	}
	ls, lv := g.gen(depth - 1)
	rs, rv := g.gen(depth - 1)
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
	case 1:
		return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
	case 2:
		return fmt.Sprintf("(%s * %s)", ls, rs), lv * rv
	case 3:
		if rv == 0 {
			return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
		}
		return fmt.Sprintf("(%s / %s)", ls, rs), lv / rv
	case 4:
		if rv == 0 {
			return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
		}
		return fmt.Sprintf("(%s %% %s)", ls, rs), lv % rv
	case 5:
		b := int64(0)
		if lv < rv {
			b = 1
		}
		return fmt.Sprintf("(%s < %s ? 1 : 0)", ls, rs), b
	default:
		return fmt.Sprintf("(%s & %s)", ls, rs), lv & rv
	}
}

func TestFuzzExpressionsAgainstNativeGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		g := &exprGen{rng: rng, vars: map[string]int64{
			"a": int64(rng.Intn(50)),
			"b": int64(rng.Intn(50)) - 25,
			"c": int64(rng.Intn(10)) + 1,
			"d": int64(rng.Intn(1000)),
		}}
		var exprs []string
		var want strings.Builder
		for i := 0; i < 4; i++ {
			src, val := g.gen(4)
			exprs = append(exprs, src)
			fmt.Fprintf(&want, "%d\n", val)
		}
		prog := fmt.Sprintf(`
int main() {
	int a = %d;
	int b = %d;
	int c = %d;
	int d = %d;
	print_int(%s);
	print_int(%s);
	print_int(%s);
	print_int(%s);
	return 0;
}`, g.vars["a"], g.vars["b"], g.vars["c"], g.vars["d"],
			exprs[0], exprs[1], exprs[2], exprs[3])

		rep, err := core.CompileAndRun("fuzz.c", prog, core.Options{Strategy: core.Sequential})
		if err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, prog)
		}
		if rep.Output != want.String() {
			t.Fatalf("trial %d: got %q want %q\nprogram:\n%s", trial, rep.Output, want.String(), prog)
		}
	}
}

// TestFuzzLoopsAcrossStrategies generates random (guaranteed-DOALL and
// not-necessarily-DOALL) loops and checks that all four systems agree
// with each other — the core soundness property: whatever the
// parallelizer and the communication optimizer decide, output never
// changes.
func TestFuzzLoopsAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	ops := []string{"+", "-", "*"}
	for trial := 0; trial < 30; trial++ {
		n := 16 + rng.Intn(48)
		stride := 1 + rng.Intn(3)
		timesteps := 1 + rng.Intn(6)
		op1 := ops[rng.Intn(len(ops))]
		indexOps := []string{"+", "-"}
		op2 := indexOps[rng.Intn(len(indexOps))]
		shift := rng.Intn(3) - 1 // -1, 0, or 1: neighbor reads of b
		scale := 1 + rng.Intn(4)

		prog := fmt.Sprintf(`
int main() {
	float *a = (float*)malloc(%d * 8);
	float *b = (float*)malloc(%d * 8);
	for (int i = 0; i < %d; i++) a[i] = (float)(i %% 7) * 0.5;
	for (int i = 0; i < %d; i++) b[i] = (float)(i %% 5) + 1.0;
	for (int t = 0; t < %d; t++) {
		for (int i = 2; i < %d; i += %d) {
			a[i] = (a[i] %s b[i %s %d]) + (float)%d * 0.25;
		}
	}
	float s = 0.0;
	for (int i = 0; i < %d; i++) s += a[i] * (float)((i %% 3) + 1);
	print_float(s);
	free(a); free(b);
	return 0;
}`, n+2, n+2, n+2, n+2, timesteps, n, stride, op1, op2, iabs(shift)+1, scale, n)

		var ref string
		for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
			rep, err := core.CompileAndRun("fuzzloop.c", prog, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d [%s]: %v\nprogram:\n%s", trial, s, err, prog)
			}
			if s == core.Sequential {
				ref = rep.Output
			} else if rep.Output != ref {
				t.Fatalf("trial %d [%s]: output %q != sequential %q\nprogram:\n%s",
					trial, s, rep.Output, ref, prog)
			}
		}
	}
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestFuzzStructLayouts randomizes struct field mixes and verifies field
// store/load round-trips and sizeof consistency end to end.
func TestFuzzStructLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []string{"char", "int", "float"}
	for trial := 0; trial < 25; trial++ {
		nf := 2 + rng.Intn(5)
		var fields, stores, checks strings.Builder
		var want strings.Builder
		for i := 0; i < nf; i++ {
			k := kinds[rng.Intn(len(kinds))]
			fmt.Fprintf(&fields, "\t%s f%d;\n", k, i)
			switch k {
			case "char":
				v := 32 + rng.Intn(90)
				fmt.Fprintf(&stores, "\ts.f%d = (char)%d;\n", i, v)
				fmt.Fprintf(&checks, "\tprint_int((int)s.f%d);\n", i)
				fmt.Fprintf(&want, "%d\n", v)
			case "int":
				v := rng.Intn(100000) - 50000
				fmt.Fprintf(&stores, "\ts.f%d = %d;\n", i, v)
				fmt.Fprintf(&checks, "\tprint_int(s.f%d);\n", i)
				fmt.Fprintf(&want, "%d\n", v)
			case "float":
				v := float64(rng.Intn(1000)) / 4
				fmt.Fprintf(&stores, "\ts.f%d = %g;\n", i, v)
				fmt.Fprintf(&checks, "\tprint_float(s.f%d);\n", i)
				fmt.Fprintf(&want, "%g\n", v)
			}
		}
		prog := fmt.Sprintf(`
struct T {
%s};
int main() {
	struct T s;
%s%s	return 0;
}`, fields.String(), stores.String(), checks.String())
		rep, err := core.CompileAndRun("fuzzstruct.c", prog, core.Options{Strategy: core.Sequential})
		if err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, prog)
		}
		if rep.Output != want.String() {
			t.Fatalf("trial %d: got %q want %q\nprogram:\n%s", trial, rep.Output, want.String(), prog)
		}
	}
}

// assignGen builds a random straight-line run of plain and compound
// assignments over int locals a0.. and float locals f0.., each statement
// kept both as mini-C text and as a step of a Go evaluator.
type assignGen struct {
	rng        *rand.Rand
	nInt, nFlt int
}

// operand is a local (kind and index) or, when local < 0, a constant.
type operand struct {
	float bool
	local int
	c     float64
}

type assignStmt struct {
	float    bool
	dst      int
	compound byte // 0 for plain =, else '+', '-' or '*'
	x, y     operand
	bin      byte // 0 when the right-hand side is x alone
}

func (g *assignGen) operand(float bool) operand {
	switch {
	case g.rng.Intn(5) == 0:
		if float {
			return operand{float: true, local: -1, c: float64(1+g.rng.Intn(8)) / 4}
		}
		return operand{local: -1, c: float64(1 + g.rng.Intn(9))}
	case float && g.rng.Intn(4) == 0: // an int local, converted
		return operand{local: g.rng.Intn(g.nInt)}
	case float:
		return operand{float: true, local: g.rng.Intn(g.nFlt)}
	}
	return operand{local: g.rng.Intn(g.nInt)}
}

func (g *assignGen) stmt() assignStmt {
	s := assignStmt{float: g.rng.Intn(2) == 0}
	n, bins := g.nInt, "+-*&^|"
	if s.float {
		n, bins = g.nFlt, "+-*"
	}
	s.dst = g.rng.Intn(n)
	if g.rng.Intn(2) == 0 {
		s.compound = "+-*"[g.rng.Intn(3)]
	}
	s.x = g.operand(s.float)
	if g.rng.Intn(4) != 0 {
		s.bin, s.y = bins[g.rng.Intn(len(bins))], g.operand(s.float)
	}
	return s
}

func (o operand) src(inFloat bool) string {
	switch {
	case o.local < 0 && o.float:
		return fmt.Sprintf("%g", o.c)
	case o.local < 0:
		return fmt.Sprintf("%d", int64(o.c))
	case o.float:
		return fmt.Sprintf("f%d", o.local)
	case inFloat:
		return fmt.Sprintf("(float)a%d", o.local)
	}
	return fmt.Sprintf("a%d", o.local)
}

func (s assignStmt) src() string {
	dst, op := fmt.Sprintf("a%d", s.dst), "="
	if s.float {
		dst = fmt.Sprintf("f%d", s.dst)
	}
	if s.compound != 0 {
		op = string(s.compound) + "="
	}
	rhs := s.x.src(s.float)
	if s.bin != 0 {
		rhs = fmt.Sprintf("%s %c %s", rhs, s.bin, s.y.src(s.float))
	}
	return fmt.Sprintf("%s %s %s;", dst, op, rhs)
}

// Every float operation goes through float64(...), which the Go spec
// says rounds, so the evaluator never fuses a multiply into an add.
func fop(op byte, x, y float64) float64 {
	switch op {
	case '+':
		return float64(x + y)
	case '-':
		return float64(x - y)
	}
	return float64(x * y)
}

func iop(op byte, x, y int64) int64 {
	switch op {
	case '+':
		return x + y
	case '-':
		return x - y
	case '*':
		return x * y
	case '&':
		return x & y
	case '^':
		return x ^ y
	}
	return x | y
}

func (s assignStmt) eval(a []int64, f []float64) {
	ival := func(o operand) int64 {
		if o.local < 0 {
			return int64(o.c)
		}
		return a[o.local]
	}
	fval := func(o operand) float64 {
		switch {
		case o.local < 0:
			return o.c
		case o.float:
			return f[o.local]
		}
		return float64(a[o.local])
	}
	if s.float {
		v := fval(s.x)
		if s.bin != 0 {
			v = fop(s.bin, v, fval(s.y))
		}
		if s.compound != 0 {
			v = fop(s.compound, f[s.dst], v)
		}
		f[s.dst] = v
		return
	}
	v := ival(s.x)
	if s.bin != 0 {
		v = iop(s.bin, v, ival(s.y))
	}
	if s.compound != 0 {
		v = iop(s.compound, a[s.dst], v)
	}
	a[s.dst] = v
}

// nestStmt is one statement of a generated loop-nest body over arrays of
// rows of w elements. The index forms x and y are 0: i*w + j,
// 1: j + i*w, 2: (i+1)*w + j - 1.
type nestStmt struct {
	kind       int   // see src
	x, y       int   // index forms
	c, d, m, r int64 // a multiplier, a step of j, a modulus and a residue
}

func indexSrc(form int, w int64) string {
	return fmt.Sprintf([...]string{"i * %d + j", "j + i * %d", "(i + 1) * %d + j - 1"}[form], w)
}

func indexVal(form int, i, j, w int64) int64 {
	return [...]int64{i*w + j, j + i*w, (i+1)*w + j - 1}[form]
}

func (s nestStmt) src(w int64) string {
	x, y := indexSrc(s.x, w), indexSrc(s.y, w)
	switch s.kind {
	case 0:
		return fmt.Sprintf("b[%s] = b[%s] + a[%s] * %d;", x, x, y, s.c)
	case 1: // one index, read three times
		return fmt.Sprintf("{ int t = %s; b[t] = b[t] + a[t]; }", x)
	case 2: // j written after b's index is computed and before a's
		return fmt.Sprintf("b[%s] = (j = j + %d) + a[%s];", x, s.d, y)
	case 3:
		return fmt.Sprintf("if ((i + j) %% %d == %d) continue;", s.m, s.r)
	}
	return fmt.Sprintf("if ((i + j) %% %d == %d) break;", s.m, s.r)
}

// TestFuzzLoopNestsAgainstNativeGo runs random two-deep loop nests over
// row-major int arrays. The bodies mix the index forms the lowering fuses
// into one access and ones it does not, an index kept in a local and read
// three times, the inner loop variable written between an index's
// computation and its use, and continue and break in the inner loop.
// Output must match a Go evaluator sequentially on the CPU and under
// optimized CGCM.
func TestFuzzLoopNestsAgainstNativeGo(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 100; trial++ {
		h, l := int64(1+rng.Intn(4)), int64(1+rng.Intn(6))
		w := l + 3 + int64(rng.Intn(4)) // rows long enough for j to grow by 3
		size := (h + 1) * w
		stmts := make([]nestStmt, 1+rng.Intn(5))
		grow := int64(0)
		for k := range stmts {
			s := nestStmt{kind: rng.Intn(5), x: rng.Intn(3), y: rng.Intn(3), c: int64(rng.Intn(7) - 3),
				d: int64(rng.Intn(2)), m: int64(2 + rng.Intn(4))}
			s.r = int64(rng.Intn(int(s.m)))
			if s.kind == 2 {
				if grow += s.d; grow > 3 {
					s.kind = 0
				}
			}
			stmts[k] = s
		}

		a, b := make([]int64, size), make([]int64, size)
		for k := range a {
			a[k], b[k] = int64(k*7%13-6), int64(k%5)
		}
		for i := int64(0); i < h; i++ {
		inner:
			for j := int64(0); j < l; j++ {
				for _, s := range stmts {
					x := indexVal(s.x, i, j, w)
					switch s.kind {
					case 0:
						b[x] += a[indexVal(s.y, i, j, w)] * s.c
					case 1:
						b[x] += a[x]
					case 2:
						j += s.d
						b[x] = j + a[indexVal(s.y, i, j, w)]
					case 3:
						if (i+j)%s.m == s.r {
							continue inner
						}
					default:
						if (i+j)%s.m == s.r {
							break inner
						}
					}
				}
			}
		}
		var body, want strings.Builder
		for _, s := range stmts {
			fmt.Fprintf(&body, "\t\t\t%s\n", s.src(w))
		}
		for _, v := range b {
			fmt.Fprintf(&want, "%d\n", v)
		}
		prog := fmt.Sprintf(`
int main() {
	int *a = (int*)malloc(%d * 8);
	int *b = (int*)malloc(%d * 8);
	for (int k = 0; k < %d; k++) { a[k] = k * 7 %% 13 - 6; b[k] = k %% 5; }
	for (int i = 0; i < %d; i++) {
		for (int j = 0; j < %d; j++) {
%s		}
	}
	for (int k = 0; k < %d; k++) print_int(b[k]);
	free(a); free(b);
	return 0;
}
`, size, size, size, h, l, body.String(), size)

		for _, s := range []core.Strategy{core.Sequential, core.CGCMOptimized} {
			rep, err := core.CompileAndRun("nest.c", prog, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d [%s]: %v\nprogram:\n%s", trial, s, err, prog)
			}
			if rep.Output != want.String() {
				t.Fatalf("trial %d [%s]: output\n%s\nwant\n%s\nprogram:\n%s", trial, s, rep.Output, want.String(), prog)
			}
		}
	}
}

// TestFuzzAssignmentsAgainstNativeGo runs random sequences of plain and
// compound assignments over 4-6 int and float locals declared in a loop
// body (a = b + a; b += a * c; c = c - b; ...) and checks every
// iteration's final values against a Go evaluator, sequentially on the
// CPU and as the kernel DOALL outlines under optimized CGCM. Which load
// of a local may read the local directly and which instruction may
// write it depends on exactly these interleavings.
func TestFuzzAssignmentsAgainstNativeGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const n = 24
	for trial := 0; trial < 150; trial++ {
		g := &assignGen{rng: rng, nInt: 2 + rng.Intn(2), nFlt: 2 + rng.Intn(2)}
		stmts := make([]assignStmt, 3+rng.Intn(10))
		for i := range stmts {
			stmts[i] = g.stmt()
		}
		iInit, fInit := make([]int64, g.nInt), make([]float64, g.nFlt)
		for k := range iInit {
			iInit[k] = int64(rng.Intn(19) - 9)
		}
		for k := range fInit {
			fInit[k] = float64(rng.Intn(16)) / 8
		}

		var decl, body, out, prints strings.Builder
		var want [2]strings.Builder // ints then floats, array by array
		a, f := make([]int64, g.nInt), make([]float64, g.nFlt)
		iters := make([][]int64, n)
		fiters := make([][]float64, n)
		for i := 0; i < n; i++ {
			for k := range a {
				a[k] = int64(i) + iInit[k]
			}
			for k := range f {
				f[k] = float64(float64(i)*0.5) + fInit[k]
			}
			for _, s := range stmts {
				s.eval(a, f)
			}
			iters[i], fiters[i] = append([]int64(nil), a...), append([]float64(nil), f...)
		}
		for k := 0; k < g.nInt; k++ {
			fmt.Fprintf(&decl, "\tint *oa%d = (int*)malloc(%d * 8);\n", k, n)
			fmt.Fprintf(&body, "\t\tint a%d = i + %d;\n", k, iInit[k])
			fmt.Fprintf(&out, "\t\toa%d[i] = a%d;\n", k, k)
			fmt.Fprintf(&prints, "\tfor (int i = 0; i < %d; i++) print_int(oa%d[i]);\n", n, k)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&want[0], "%d\n", iters[i][k])
			}
		}
		for k := 0; k < g.nFlt; k++ {
			fmt.Fprintf(&decl, "\tfloat *of%d = (float*)malloc(%d * 8);\n", k, n)
			fmt.Fprintf(&body, "\t\tfloat f%d = (float)i * 0.5 + %g;\n", k, fInit[k])
			fmt.Fprintf(&out, "\t\tof%d[i] = f%d;\n", k, k)
			fmt.Fprintf(&prints, "\tfor (int i = 0; i < %d; i++) print_float(of%d[i]);\n", n, k)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&want[1], "%.6g\n", fiters[i][k])
			}
		}
		for _, s := range stmts {
			fmt.Fprintf(&body, "\t\t%s\n", s.src())
		}
		prog := fmt.Sprintf("int main() {\n%s\tfor (int i = 0; i < %d; i++) {\n%s%s\t}\n%s\treturn 0;\n}\n",
			decl.String(), n, body.String(), out.String(), prints.String())

		for _, s := range []core.Strategy{core.Sequential, core.CGCMOptimized} {
			rep, err := core.CompileAndRun("assign.c", prog, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("trial %d [%s]: %v\nprogram:\n%s", trial, s, err, prog)
			}
			if got := rep.Output; got != want[0].String()+want[1].String() {
				t.Fatalf("trial %d [%s]: output\n%s\nwant\n%s\nprogram:\n%s", trial, s, got, want[0].String()+want[1].String(), prog)
			}
			if s == core.CGCMOptimized && rep.Stats.NumKernels == 0 {
				t.Fatalf("trial %d: the loop was not outlined as a kernel\nprogram:\n%s", trial, prog)
			}
		}
	}
}
