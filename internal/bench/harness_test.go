package bench_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/faultinject"
	"cgcm/internal/runlog"
)

func TestTable1FeatureProgramsPass(t *testing.T) {
	results, err := bench.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("feature programs = %d, want 5", len(results))
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("%s: %s", r.Feature, r.Detail)
		}
	}
	var buf bytes.Buffer
	bench.RenderTable1(&buf, results)
	for _, want := range []string{"CGCM", "JCUDA", "Named Regions", "PASS"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestFigure2ScheduleShapes(t *testing.T) {
	schedules, err := bench.CollectSchedules()
	if err != nil {
		t.Fatal(err)
	}
	if len(schedules) != 3 {
		t.Fatalf("schedules = %d", len(schedules))
	}
	cyclic, inspector, acyclic := schedules[0], schedules[1], schedules[2]
	// The acyclic schedule must beat both cyclic patterns (Figure 2's
	// whole point).
	if acyclic.Wall >= cyclic.Wall || acyclic.Wall >= inspector.Wall {
		t.Errorf("acyclic %.1fus not fastest (cyclic %.1fus, inspector %.1fus)",
			acyclic.Wall*1e6, cyclic.Wall*1e6, inspector.Wall*1e6)
	}
	// Events must exist on all three lanes of each schedule.
	for _, s := range schedules {
		if len(s.Spans) == 0 {
			t.Errorf("%s: empty trace", s.Name)
		}
	}
	var buf bytes.Buffer
	bench.RenderFigure2(&buf, schedules)
	out := buf.String()
	for _, want := range []string{"CPU ", "Xfer", "GPU ", "K", "H", "D"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered schedule missing %q", want)
		}
	}
}

// TestApplicabilityGuard verifies the NR/IE guard discriminates: a
// gather kernel (data-dependent indexing) and a jagged-array kernel
// (double indirection) are CGCM-only; a dense kernel is universal.
func TestApplicabilityGuard(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		wantCGCM   int
		wantOthers int
	}{
		{"dense", `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = 1.0;
}
int main() {
	float *v = (float*)malloc(64);
	k<<<1, 8>>>(v, 8);
	free(v);
	return 0;
}`, 1, 1},
		{"gather", `
__global__ void k(float *out, float *in, int *idx, int n) {
	int i = tid();
	if (i < n) out[i] = in[idx[i]];
}
int main() {
	float *out = (float*)malloc(64);
	float *in = (float*)malloc(64);
	int *idx = (int*)malloc(64);
	k<<<1, 8>>>(out, in, idx, 8);
	free(out); free(in); free(idx);
	return 0;
}`, 1, 0},
		{"jagged", `
__global__ void k(float **rows, int n) {
	int i = tid();
	if (i < n) {
		float *r = rows[i];
		r[0] = 1.0;
	}
}
int main() {
	float **rows = (float**)malloc(64);
	k<<<1, 8>>>(rows, 8);
	free(rows);
	return 0;
}`, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cgcmN, ie, nr, err := bench.ApplicabilityOf(c.name, c.src)
			if err != nil {
				t.Fatal(err)
			}
			if cgcmN != c.wantCGCM {
				t.Errorf("CGCM kernels = %d, want %d", cgcmN, c.wantCGCM)
			}
			if ie != c.wantOthers || nr != c.wantOthers {
				t.Errorf("IE/NR = %d/%d, want %d", ie, nr, c.wantOthers)
			}
		})
	}
}

// TestRunProgramInvariants spot-checks the harness on two contrasting
// programs without running the whole suite.
func TestRunProgramInvariants(t *testing.T) {
	for _, name := range []string{"jacobi-2d-imper", "gramschmidt"} {
		p, ok := bench.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		row, err := bench.RunProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if row.SpeedupOpt < row.SpeedupUnopt {
			t.Errorf("%s: optimization reduced performance (%f < %f)",
				name, row.SpeedupOpt, row.SpeedupUnopt)
		}
		if row.KernelsCGCM == 0 {
			t.Errorf("%s: no kernels", name)
		}
		if row.GPUPctOpt < 0 || row.GPUPctOpt > 100 || row.CommPctOpt < 0 || row.CommPctOpt > 100 {
			t.Errorf("%s: nonsensical percentages %f %f", name, row.GPUPctOpt, row.CommPctOpt)
		}
	}
}

// TestRenderers ensures the table/figure renderers produce the expected
// row structure from synthetic rows.
func TestRenderers(t *testing.T) {
	p, _ := bench.ByName("seidel")
	row, err := bench.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var fig4, tab3 bytes.Buffer
	bench.RenderFigure4(&fig4, []*bench.Row{row})
	bench.RenderTable3(&tab3, []*bench.Row{row})
	if !strings.Contains(fig4.String(), "seidel") || !strings.Contains(fig4.String(), "geomean") {
		t.Error("Figure 4 rendering incomplete")
	}
	if !strings.Contains(tab3.String(), "seidel") || !strings.Contains(tab3.String(), "Other") {
		t.Error("Table 3 rendering incomplete")
	}
}

// TestRunAllRecordsTheSuite drives the harness-to-store path end to end:
// the suite swept sync and then async with bench.Runlog set. The two
// sweeps must reproduce the committed baselines BENCH_0.json and
// BENCH_1.json exactly: any change in a simulated wall or in the transfer
// totals fails. Each program's two stored records must carry a
// critical-path digest, and the digests' per-class deltas must sum to
// the wall delta exactly — what `cgcmstat -regress` attributes; the HTML
// report over the store must be byte-identical across two exports.
//
// After an intentional change to a simulated number, rewrite both
// baselines with UPDATE_GOLDEN=1 go test -run TestRunAllRecordsTheSuite
// ./internal/bench; on an unchanged tree that touches only host_ns.
func TestRunAllRecordsTheSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the whole suite twice")
	}
	st, err := runlog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prevRunlog, prevAsync := bench.Runlog, bench.Async
	t.Cleanup(func() { bench.Runlog, bench.Async = prevRunlog, prevAsync })
	bench.Runlog = st
	for i, async := range []bool{false, true} {
		bench.Async = async
		rows, err := bench.RunAll(nil)
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		path := fmt.Sprintf("../../BENCH_%d.json", i)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := bench.NewBaseline(rows).WriteFile(path); err != nil {
				t.Fatal(err)
			}
		}
		base, err := bench.ReadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if cmp := bench.Compare(base, rows); cmp.Failed() {
			var out strings.Builder
			bench.RenderComparison(&out, cmp)
			t.Errorf("async=%v: the suite no longer reproduces %s:\n%s", async, path, out.String())
		}
	}
	for _, p := range bench.All() {
		ra, err := st.Load(p.Name + "-1")
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		rb, err := st.Load(p.Name + "-2")
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if ra.Options.Async || !rb.Options.Async {
			t.Errorf("%s: records are not the sync run then the async run: %s, %s", p.Name, ra.Options.Label(), rb.Options.Label())
		}
		if ra.Critpath == nil || rb.Critpath == nil {
			t.Errorf("%s: stored record has no critical-path digest", p.Name)
			continue
		}
		d, err := critpath.DiffSummaries(*ra.Critpath, *rb.Critpath)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if !d.Exact() {
			t.Errorf("%s: class deltas do not sum to the wall delta %g", p.Name, rb.Stats.Wall-ra.Stats.Wall)
		}
	}
	var exports [2]bytes.Buffer
	for i := range exports {
		recs, err := st.Records()
		if err != nil {
			t.Fatal(err)
		}
		if err := runlog.WriteHTML(&exports[i], recs); err != nil {
			t.Fatalf("export %d: %v", i+1, err)
		}
	}
	if !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
		t.Error("HTML report is not byte-deterministic across exports")
	}
}

// TestFaultPlanKeepsEveryOutput sweeps the suite under the standard fault
// plan — transient host-to-device, device-to-host and allocation faults —
// on a 256 KiB device and on a 16 KiB one, where the runtime must also
// evict units it has written and degrade to the CPU. RunProgram fails any
// program whose output under any strategy differs from sequential, so a
// break anywhere in the runtime's evict/retry/degrade ladder fails here.
// Each sweep must also have driven the ladder: faults were injected, and
// the runtime evicted or retried.
func TestFaultPlanKeepsEveryOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the whole suite twice")
	}
	spec, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	prevMem, prevFaults := bench.GPUMem, bench.Faults
	t.Cleanup(func() { bench.GPUMem, bench.Faults = prevMem, prevFaults })
	for _, kib := range []int64{256, 16} {
		bench.GPUMem, bench.Faults = kib<<10, spec
		rows, err := bench.RunAll(nil)
		if err != nil {
			t.Errorf("%d KiB: %v", kib, err)
			continue
		}
		var faults, ladder int64
		for _, r := range rows {
			for _, rep := range []*core.Report{r.IE, r.Unopt, r.Opt} {
				faults += rep.Stats.InjectedFaults
				ladder += rep.RTStats.Evictions + rep.RTStats.Retries
			}
		}
		if faults == 0 || ladder == 0 {
			t.Errorf("%d KiB: the sweep did not drive the fault ladder: %d faults injected, %d evictions and retries", kib, faults, ladder)
		}
	}
}
