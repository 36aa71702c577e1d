package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/runlog"
	"cgcm/internal/trace"
)

// demoSource mirrors the cgcmrun test fixture: a promotable timestep
// loop over two heap units — communication-bound under optimized CGCM.
const demoSource = `int main() {
	float *grid = (float*)malloc(32 * 8);
	float *next = (float*)malloc(32 * 8);
	for (int i = 0; i < 32; i++) grid[i] = 1.0 * i;
	for (int t = 0; t < 6; t++) {
		for (int i = 1; i < 31; i++) next[i] = 0.5 * (grid[i - 1] + grid[i + 1]);
		for (int i = 1; i < 31; i++) grid[i] = next[i];
	}
	float total = 0.0;
	for (int i = 0; i < 32; i++) total += grid[i];
	print_float(total);
	return 0;
}`

func writeDemo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "demo.c")
	if err := os.WriteFile(path, []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeLiveAndTrace checks the headline mode on a live run, and
// that the run's exported Chrome trace is no input: a .json argument
// takes no special path, so it is read as mini-C and fails to compile.
func TestAnalyzeLiveAndTrace(t *testing.T) {
	src := writeDemo(t)
	var live bytes.Buffer
	if code := run([]string{src}, &live, &live); code != 0 {
		t.Fatalf("live exit %d:\n%s", code, live.String())
	}
	for _, want := range []string{"limiting factor: Comm.", "what-if retime (exact", "zero-comm", "gpu-2x", "perfect-overlap", "sums to wall"} {
		if !strings.Contains(live.String(), want) {
			t.Errorf("live output missing %q:\n%s", want, live.String())
		}
	}
	tr := trace.New()
	if _, err := core.CompileAndRun("demo.c", demoSource, core.Options{Strategy: core.CGCMOptimized, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	tf := filepath.Join(t.TempDir(), "demo.json")
	if err := os.WriteFile(tf, chrome.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{tf}, &out, &out); code != 1 || strings.Contains(out.String(), "critical path") {
		t.Errorf("exported trace as input: exit %d, output %q; want 1 and no analysis", code, out.String())
	}
}

// TestWhatIfFlag checks -whatif narrows the replay to one scenario.
func TestWhatIfFlag(t *testing.T) {
	src := writeDemo(t)
	var out bytes.Buffer
	if code := run([]string{"-whatif", "zero-comm", src}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "zero-comm") {
		t.Errorf("missing zero-comm prediction:\n%s", out.String())
	}
	if strings.Contains(out.String(), "gpu-2x") {
		t.Errorf("-whatif zero-comm also printed gpu-2x:\n%s", out.String())
	}
	var bad bytes.Buffer
	if code := run([]string{"-whatif", "comm-3x", src}, &bad, &bad); code != 2 {
		t.Errorf("unknown scenario exit %d, want 2", code)
	}
	// The scenario is checked before any input is loaded or run.
	bad.Reset()
	if code := run([]string{"-whatif", "bogus", "missing.c"}, &bad, &bad); code != 2 || !strings.Contains(bad.String(), `unknown scenario "bogus"`) {
		t.Errorf("-whatif bogus missing.c: exit %d, output %q; want 2 and the scenario error", code, bad.String())
	}
}

// TestTimeoutFlag: -timeout bounds the host time of the live run and of
// the -diff pair; an unbounded loop stops at the deadline with a message
// that names it.
func TestTimeoutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spin.c")
	if err := os.WriteFile(path, []byte(`int main() { long n = 0; while (1) n++; print_int(n); return 0; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{}, {"-diff"}} {
		var out bytes.Buffer
		start := time.Now()
		code := run(append(mode, "-timeout", "100ms", path), &out, &out)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%v: took %v under -timeout 100ms", mode, elapsed)
		}
		if code != 1 || !strings.Contains(out.String(), "aborted by -timeout 100ms") {
			t.Errorf("%v: exit %d, output %q; want 1 and the timeout named", mode, code, out.String())
		}
	}
}

// TestDiffSource checks the one-source sync-vs-async attribution.
func TestDiffSource(t *testing.T) {
	src := writeDemo(t)
	var out bytes.Buffer
	if code := run([]string{"-diff", src}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{"wall: sync", "-> async", "critical-path attribution", "limiting factor: sync"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRegressMatchesDiff covers the modes that compare runs across
// builds: the demo's sync and async records, appended to a store as
// -runlog appends them, attribute under -regress exactly as -diff
// attributes the live pair; -history lists both and -report writes its
// file.
func TestRegressMatchesDiff(t *testing.T) {
	store := filepath.Join(t.TempDir(), "runs")
	st, err := runlog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, async := range []bool{false, true} {
		opts := core.Options{Strategy: core.CGCMOptimized, Async: async, Tracer: trace.New()}
		rep, err := core.CompileAndRun("demo.c", demoSource, opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.Append(cli.NewRunRecord("demo.c", opts, rep, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var regress, live bytes.Buffer
	if code := run([]string{"-runlog", store, "-regress", ids[0], ids[1]}, &regress, &regress); code != 0 {
		t.Fatalf("-regress exit %d:\n%s", code, regress.String())
	}
	if !strings.Contains(regress.String(), "attribution is exact") {
		t.Errorf("-regress does not report an exact attribution:\n%s", regress.String())
	}
	if code := run([]string{"-diff", writeDemo(t)}, &live, &live); code != 0 {
		t.Fatalf("-diff exit %d:\n%s", code, live.String())
	}
	// Same numbers, different labels: the per-class attribution rows
	// (which carry no labels) must match exactly. -regress prints the
	// unit deltas after a blank line.
	rows := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				switch f[0] {
				case "GPU", "Comm.", "CPU", "Overhead", "Stall", "total":
					out = append(out, line)
				}
			}
		}
		return out
	}
	attribution, _, _ := strings.Cut(regress.String(), "\n\n")
	if rr, lr := rows(attribution), rows(live.String()); len(rr) == 0 || strings.Join(rr, "\n") != strings.Join(lr, "\n") {
		t.Errorf("-regress rows differ from -diff rows:\n%s\n---\n%s", strings.Join(rr, "\n"), strings.Join(lr, "\n"))
	}
	var history bytes.Buffer
	if code := run([]string{"-runlog", store, "-history"}, &history, &history); code != 0 {
		t.Fatalf("-history exit %d:\n%s", code, history.String())
	}
	for _, id := range ids {
		if !strings.Contains(history.String(), id) {
			t.Errorf("-history does not list %s:\n%s", id, history.String())
		}
	}
	html := filepath.Join(t.TempDir(), "report.html")
	var report bytes.Buffer
	if code := run([]string{"-runlog", store, "-report", html}, &report, &report); code != 0 {
		t.Fatalf("-report exit %d:\n%s", code, report.String())
	}
	if fi, err := os.Stat(html); err != nil || fi.Size() == 0 {
		t.Errorf("-report wrote no file: %v", err)
	}
}

// TestErrors locks the failure exits.
func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{}, &out, &out); code != 2 {
		t.Errorf("no args exit %d, want 2", code)
	}
	if code := run([]string{"missing.c"}, &out, &out); code != 1 {
		t.Errorf("missing file exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"foreign": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &out); code != 1 {
		t.Errorf(".json input exit %d, want 1 (it is read as source)", code)
	}
	if code := run([]string{"-diff", bad, bad, bad}, &out, &out); code != 2 {
		t.Errorf("-diff with three args exit %d, want 2", code)
	}
	if code := run([]string{"-diff", bad}, &out, &out); code != 1 {
		t.Errorf("-diff with one json exit %d, want 1 (it is read as source)", code)
	}
}
