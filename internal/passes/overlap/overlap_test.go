package overlap_test

import (
	"fmt"
	"strings"
	"testing"

	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/overlap"
	"cgcm/internal/remarks"
)

// prepare compiles src and runs communication management, the pass whose
// synchronous map/unmap sites overlap rewrites.
func prepare(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, perrs := parser.Parse("t.c", src)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs)
	}
	info, serrs := sema.Check(f)
	if len(serrs) > 0 {
		t.Fatalf("sema: %v", serrs)
	}
	m, err := irbuild.Build(info)
	if err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	if _, err := commmgmt.Run(m, nil); err != nil {
		t.Fatalf("commmgmt: %v", err)
	}
	return m
}

// runtimeCalls lists fn's cgcm.* calls as "name@line", in program order.
func runtimeCalls(m *ir.Module, fn string) []string {
	var out []string
	for _, f := range m.Funcs {
		if f.Name != fn {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.IsRuntimeCall("") {
					out = append(out, fmt.Sprintf("%s@%d", strings.TrimPrefix(in.Name, "cgcm."), in.Line))
				}
			}
		}
	}
	return out
}

const kernelK = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
float first(float *p) { return p[0]; }
`

// TestUnmapHazards is the pass's decision table: every map is prefetched,
// and an unmap overlaps unless host code later in its block may touch the
// flushed unit. Launches sit on line 10 (unit a) and line 12 (unit b);
// line 11 is the host code between them.
func TestUnmapHazards(t *testing.T) {
	cases := []struct {
		name     string
		between  string // host statement on line 11, after the launch over a
		wantSync bool   // a's flush stays cgcm.unmap
		wantOp   string // the blocking access the remark must name
	}{
		{name: "no host access", between: ";"},
		{name: "load of another unit", between: "print_float(b[0]);"},
		{name: "store to another unit", between: "b[0] = 2.0;"},
		{name: "call on another unit", between: "print_float(first(b));"},
		{name: "load of the flushed unit", between: "print_float(a[0]);", wantSync: true, wantOp: "load"},
		{name: "store to the flushed unit", between: "a[3] = 2.0;", wantSync: true, wantOp: "store"},
		{name: "call that may reach the flushed unit", between: "print_float(first(a));", wantSync: true, wantOp: "call"},
		{name: "load through an offset alias", between: "float *q = a + 8; print_float(q[0]);", wantSync: true, wantOp: "load"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := kernelK + "int main() {\n" + // lines 7..
				"\tfloat *a = (float*)malloc(64 * 8);\n" + // 8
				"\tfloat *b = (float*)malloc(64 * 8);\n" + // 9
				"\tk<<<1, 64>>>(a, 64);\n" + // 10
				"\t" + tc.between + "\n" + // 11
				"\tk<<<1, 64>>>(b, 64);\n" + // 12
				"\treturn 0;\n}\n"
			m := prepare(t, src)
			rc := remarks.NewCollector("t.c")
			res, err := overlap.Run(m, rc)
			if err != nil {
				t.Fatal(err)
			}

			aFlush := "unmapAsync@10"
			wantRes := overlap.Result{MapsRewritten: 2, UnmapsRewritten: 2}
			if tc.wantSync {
				aFlush = "unmap@10"
				wantRes = overlap.Result{MapsRewritten: 2, UnmapsRewritten: 1, Missed: 1}
			}
			// b's flush is followed only by its release and the return.
			want := []string{"mapAsync@10", aFlush, "release@10", "mapAsync@12", "unmapAsync@12", "release@12"}
			if got := runtimeCalls(m, "main"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("runtime calls:\n got %v\nwant %v", got, want)
			}
			if *res != wantRes {
				t.Errorf("Result = %+v, want %+v", *res, wantRes)
			}
			if res.Rewritten() != wantRes.MapsRewritten+wantRes.UnmapsRewritten {
				t.Errorf("Rewritten() = %d", res.Rewritten())
			}

			var missed []remarks.Remark
			applied := 0
			for _, r := range rc.Remarks() {
				if r.Pass != "overlap" {
					t.Errorf("remark under pass %q", r.Pass)
				}
				switch r.Kind {
				case remarks.Applied:
					applied++
				case remarks.Missed:
					missed = append(missed, r)
				}
			}
			if applied != res.Rewritten() || len(missed) != res.Missed {
				t.Errorf("%d applied / %d missed remarks, Result says %d / %d", applied, len(missed), res.Rewritten(), res.Missed)
			}
			if !tc.wantSync {
				return
			}
			r := missed[0]
			if r.Reason != remarks.ReasonHostAccess || r.Line != 10 || r.Function != "main" {
				t.Errorf("missed remark %+v, want host-access at main:10", r)
			}
			if wantMsg := fmt.Sprintf("host %s at line 11", tc.wantOp); !strings.Contains(r.Message, wantMsg) {
				t.Errorf("remark %q does not name the blocking access (%q)", r.Message, wantMsg)
			}
		})
	}
}

// TestIndirectArraysStaySynchronous: mapArray/unmapArray sites are never
// rewritten and each is reported with ReasonIndirectArray; the plain unit
// launched alongside still overlaps.
func TestIndirectArraysStaySynchronous(t *testing.T) {
	m := prepare(t, `
char *lines[3] = {"what so proudly", "we hailed", "at the twilight"};
int lens[3];
__global__ void measure(char **arr, int *out, int n) {
	int i = tid();
	if (i < n) {
		char *s = arr[i];
		int len = 0;
		while (s[len]) len = len + 1;
		out[i] = len;
	}
}
int main() {
	measure<<<1, 3>>>(lines, lens, 3);
	return 0;
}`)
	rc := remarks.NewCollector("t.c")
	res, err := overlap.Run(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	calls := strings.Join(runtimeCalls(m, "main"), " ")
	for _, want := range []string{"mapArray@", "unmapArray@", "mapAsync@", "unmapAsync@"} {
		if !strings.Contains(calls, want) {
			t.Errorf("runtime calls %q lack %q", calls, want)
		}
	}
	if strings.Contains(calls, "mapArrayAsync") || strings.Contains(calls, "unmapArrayAsync") {
		t.Errorf("array verbs were rewritten: %q", calls)
	}
	if want := (overlap.Result{MapsRewritten: 1, UnmapsRewritten: 1, Missed: 2}); *res != want {
		t.Errorf("Result = %+v, want %+v", *res, want)
	}
	// mapArray and unmapArray share a launch line and a message, so the
	// collector folds their two remarks into one.
	var missed []remarks.Remark
	for _, r := range rc.Remarks() {
		if r.Kind == remarks.Missed {
			missed = append(missed, r)
		}
	}
	if len(missed) != 1 || missed[0].Reason != remarks.ReasonIndirectArray || missed[0].Line != 14 {
		t.Errorf("missed remarks %+v, want one indirect-array remark at line 14", missed)
	}
}

// TestKernelsSkippedAndNilCollector: the pass rewrites CPU code only, and
// runs identically without a remark collector.
func TestKernelsSkippedAndNilCollector(t *testing.T) {
	src := kernelK + `
int main() {
	float *a = (float*)malloc(64 * 8);
	k<<<1, 64>>>(a, 64);
	print_float(a[0]);
	return 0;
}`
	m := prepare(t, src)
	// Communication management never puts runtime calls in a kernel, so
	// flag the managed function as one: its sites must then be left alone.
	for _, f := range m.Funcs {
		if f.Name == "main" {
			f.Kernel = true
		}
	}
	before := runtimeCalls(m, "main")
	res, err := overlap.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtimeCalls(m, "main"); fmt.Sprint(got) != fmt.Sprint(before) || len(before) == 0 {
		t.Errorf("kernel function's runtime calls changed: %v -> %v", before, got)
	}
	if *res != (overlap.Result{}) {
		t.Errorf("Result = %+v for a module with no CPU sites", *res)
	}

	withRC, withoutRC := prepare(t, src), prepare(t, src)
	r1, err1 := overlap.Run(withRC, remarks.NewCollector("t.c"))
	r2, err2 := overlap.Run(withoutRC, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if *r1 != *r2 || withRC.String() != withoutRC.String() {
		t.Errorf("nil collector changed the rewrite: %+v vs %+v", *r1, *r2)
	}
	if want := (overlap.Result{MapsRewritten: 1, Missed: 1}); *r2 != want {
		t.Errorf("Result = %+v, want %+v", *r2, want)
	}
}
