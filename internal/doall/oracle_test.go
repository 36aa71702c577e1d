package doall_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/doall"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/remarks"
)

// The differential oracle for the one-build, one-verdict driver: Run
// against RunReference (reference_test.go), the restart driver it
// replaced, which rebuilds every analysis from the rewritten IR after
// each outline. They must agree on the module text, on the canonical
// remark list and on the number of loops parallelized — for every
// program, because the claim is that nothing Run keeps across an
// outline has gone stale.

// shrinkingParent is the program whose visit order a single walk of the
// initial loop forest gets wrong. The t loop (line 7) is rejected and
// its first child outlined (doall1); that shrinks it below the loop at
// line 15, which therefore goes next (doall2), ahead of the t loop's
// second child (line 13, doall3).
const shrinkingParent = `
int main() {
	float *a = (float*)malloc(16 * 8);
	float *b = (float*)malloc(16 * 8);
	float *c = (float*)malloc(16 * 8);
	for (int i = 0; i < 16; i++) { a[i] = (float)i; c[i] = (float)(16 - i); }
	for (int t = 0; t < 3; t++) {
		for (int i = 0; i < 16; i++) {
			if (a[i] > 4.0) b[i] = a[i] * 2.0; else b[i] = a[i];
			if (a[i] > 8.0) b[i] = b[i] + 1.0; else b[i] = b[i] - 1.0;
			if (a[i] > 12.0) b[i] = b[i] * 0.5; else b[i] = b[i] * 1.5;
		}
		for (int i = 0; i < 16; i++) a[i] = b[i] * 0.5;
	}
	for (int i = 0; i < 16; i++) {
		if (c[i] > 2.0) c[i] = c[i] - 1.0; else c[i] = c[i] + 1.0;
		if (c[i] > 4.0) c[i] = c[i] * 0.5; else c[i] = c[i] * 2.0;
		if (c[i] > 6.0) c[i] = c[i] - 3.0; else c[i] = c[i] + 3.0;
		if (c[i] > 8.0) c[i] = c[i] * 0.25; else c[i] = c[i] * 4.0;
	}
	print_float(a[3] + b[5] + c[7]);
	free(a); free(b); free(c);
	return 0;
}`

// middleDoall is a three-deep nest whose middle loop is the DOALL one:
// the outer loop carries a dependence through m, the inner loop is
// serialized inside each thread.
const middleDoall = `
int main() {
	float *m = (float*)malloc(8 * 16 * 8);
	for (int i = 0; i < 8 * 16; i++) m[i] = 1.0;
	for (int t = 1; t < 8; t++) {
		for (int i = 0; i < 16; i++) {
			float acc = 0.0;
			for (int k = 0; k < 4; k++) acc += m[(t - 1) * 16 + (i + k) % 16];
			m[t * 16 + i] = acc;
		}
	}
	print_float(m[100]);
	free(m);
	return 0;
}`

// mixedVerdicts has loops rejected at every stage of the judgement —
// shape, body screen (a call after a launch-to-be), dependence — in
// several functions, a shared induction slot, a while loop, a continue
// and a break, and a timestep loop whose first inadmissible instruction
// changes from the call to a launch once a child is outlined.
const mixedVerdicts = `
float helper(float *p, int n) {
	float s = 0.0;
	for (int i = 0; i < n; i++) s += p[i];
	for (int i = 0; i < n; i++) p[i] = p[i] * 2.0;
	return s;
}
void fill(float *p, int n, float v) {
	int i;
	for (i = 0; i < n; i++) p[i] = v;
	for (i = 0; i < n; i += 2) p[i] = v + 1.0;
	i = 0;
	while (i < n) { p[i] = p[i] + 1.0; i++; }
}
int main() {
	int n = 64;
	float *a = (float*)malloc(n * 8);
	float *b = (float*)malloc(n * 8);
	float *m = (float*)malloc(n * n * 8);
	fill(a, n, 1.0);
	fill(b, n, 2.0);
	for (int i = 0; i < n; i++) {
		for (int j = 0; j < n; j++) {
			m[i * n + j] = a[i] + b[j];
		}
	}
	for (int t = 0; t < 4; t++) {
		for (int i = 0; i < n; i++) {
			if (a[i] > 100.0) break;
			a[i] = a[i] + 1.0;
		}
		for (int i = 0; i < n; i++) {
			float acc = 0.0;
			for (int j = 0; j < n; j++) {
				for (int k = 0; k < 2; k++) acc += m[i * n + j] * b[j];
			}
			a[i] = acc;
		}
		for (int i = 1; i < n; i++) b[i] = b[i - 1] + a[i];
		float s = helper(a, n);
		for (int i = 0; i < n; i++) { b[i] = b[i] + s; print_float(b[i]); }
		for (int i = 0; i < n; i++) {
			if (i % 2 == 0) continue;
			b[i] = a[i] * 0.5;
		}
	}
	for (int i = 0; i < n; i++) {
		int k;
		a[i] = 0.0;
		k = i;
		b[k] = 1.0;
	}
	for (int i = 0; i < n; i++) {
		int k;
		if (i > 0) a[k] = 0.0;
		k = i;
	}
	for (int i = 0; i <= n - 1; i++) {
		int lo = i * n;
		for (int j = 0; j < n; j++) m[lo + j] = m[lo + j] * 2.0;
	}
	print_float(a[3] + b[4] + m[77]);
	free(a); free(b); free(m);
	return 0;
}
`

// pointerRows has loops over pointer arrays and globals, an induction
// variable whose address is taken, and one declared outside its loop.
const pointerRows = `
int g[32];
float w[32];
int main() {
	float **rows = (float**)malloc(16 * 8);
	for (int i = 0; i < 16; i++) {
		float *r = (float*)malloc(8 * 8);
		for (int j = 0; j < 8; j++) r[j] = (float)(i + j);
		rows[i] = r;
	}
	for (int i = 0; i < 32; i++) { g[i] = i; w[i] = (float)i; }
	float *out = (float*)malloc(16 * 8);
	for (int t = 0; t < 3; t++) {
		for (int i = 0; i < 16; i++) {
			float *row = rows[i];
			float s = 0.0;
			for (int j = 0; j < 8; j++) s += row[j];
			out[i] = s;
		}
		for (int i = 0; i < 16; i++) {
			for (int j = 0; j < 2; j++) {
				w[i * 2 + j] = out[i] + (float)g[i];
			}
		}
		for (int i = 0; i < 32; i++) g[i] = g[(i + 1) % 32];
	}
	int x = 5;
	int *px = &x;
	for (int i = 0; i < 16; i++) { out[i] = out[i] + (float)(*px); }
	for (x = 0; x < 16; x++) { out[x] = out[x] * 2.0; }
	print_float(out[3] + w[5]);
	return 0;
}
`

// oracleCorpus is FuzzCompile's seed corpus (the suite and its small
// programs) plus the programs aimed at the driver.
func oracleCorpus() map[string]string {
	corpus := map[string]string{
		"shrinking-parent": shrinkingParent,
		"middle-doall":     middleDoall,
		"mixed-verdicts":   mixedVerdicts,
		"pointer-rows":     pointerRows,
		"empty-main":       "int main() { return 0; }",
		"empty-loop":       "int main() { for (int i = 0; i < 4; i++) { } return 0; }",
		"timestep": `
int main() {
	int n = 512;
	float *a = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) { a[i] = (float)i; }
	for (int t = 0; t < 10; t++) {
		for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
	}
	float sum = 0.0;
	for (int i = 0; i < n; i++) sum += a[i];
	print_float(sum / 1000000.0);
	free(a);
	return 0;
}`,
		// The store after the continue is dead code in a block of its own
		// that leaves with the loop; while it is there, x has two initial
		// values and the x loop's trip count is unknown.
		"dead-store-after-continue": `
int main() {
	float *a = (float*)malloc(64 * 8);
	int x;
	for (int t = 0; t < 2; t++) {
		for (int i = 0; i < 64; i++) {
			if (i % 2 == 0) { continue; x = 5; }
			a[i] = 1.0;
		}
		for (x = 0; x < 8; x++) {
			for (int j = 0; j < 8; j++) a[x * 8 + j] = 2.0;
		}
	}
	print_float(a[9]);
	free(a);
	return 0;
}`,
		"shared-induction-slot": `
int main() {
	float *a = (float*)malloc(64 * 8);
	float *b = (float*)malloc(64 * 8);
	int i;
	int n = 64;
	for (i = 0; i < n; i++) a[i] = (float)i;
	for (i = 0; i < n; i++) b[i] = a[i] + 1.0;
	for (int t = 0; t < 2; t++) {
		for (i = 0; i < n; i++) a[i] = b[i] * 0.5;
		print_float(a[t]);
		for (i = 1; i < n; i++) b[i] = b[i - 1] + a[i];
	}
	print_int(i);
	free(a); free(b);
	return 0;
}`,
	}
	for _, p := range bench.All() {
		corpus[p.Name] = p.Source
	}
	for _, n := range []int{1, 2, 8, 24} {
		corpus[fmt.Sprintf("groups%d", n)] = bench.LoopGroups(n)
	}
	return corpus
}

// lower builds src's IR as the pipeline hands it to the parallelizer
// (constant folding done), or nil if src does not compile.
func lower(src string) *ir.Module {
	f, perrs := parser.Parse("t.c", src)
	if len(perrs) > 0 {
		return nil
	}
	info, serrs := sema.Check(f)
	if len(serrs) > 0 {
		return nil
	}
	m, err := irbuild.Build(info)
	if err != nil {
		return nil
	}
	if _, err := constfold.Run(m); err != nil {
		return nil
	}
	return m
}

// agree runs both drivers on src and reports how they differ, or "".
func agree(src string) string {
	got, want := lower(src), lower(src)
	if got == nil {
		return ""
	}
	grc, wrc := remarks.NewCollector("t.c"), remarks.NewCollector("t.c")
	gres, gerr := doall.Run(got, grc)
	wres, werr := doall.RunReference(want, wrc)
	switch {
	case gerr != nil || werr != nil:
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("Run failed with %v, the reference with %v", gerr, werr)
		}
		return ""
	case gres.LoopsParallelized != wres.LoopsParallelized:
		return fmt.Sprintf("Run parallelized %d loops, the reference %d", gres.LoopsParallelized, wres.LoopsParallelized)
	case got.String() != want.String():
		return fmt.Sprintf("modules differ.\nRun:\n%s\nreference:\n%s", got, want)
	case !reflect.DeepEqual(grc.Remarks(), wrc.Remarks()):
		var b strings.Builder
		b.WriteString("remarks differ.\nRun:\n")
		_ = remarks.Write(&b, grc.Remarks())
		b.WriteString("reference:\n")
		_ = remarks.Write(&b, wrc.Remarks())
		return b.String()
	}
	return ""
}

func TestRunMatchesRestartDriver(t *testing.T) {
	for name, src := range oracleCorpus() {
		if lower(src) == nil {
			t.Errorf("%s does not compile", name)
		} else if diff := agree(src); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// FuzzRunMatchesRestartDriver mutates the corpus; sources that do not
// compile are skipped.
func FuzzRunMatchesRestartDriver(f *testing.F) {
	for _, src := range oracleCorpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if diff := agree(src); diff != "" {
			t.Fatal(diff)
		}
	})
}
