package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cgcm/internal/core"
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

// writeDemoTrace runs the demo live and exports its Chrome trace.
func writeDemoTrace(t *testing.T, dir string, async bool) string {
	t.Helper()
	tr := trace.New()
	_, err := core.CompileAndRun("demo.c", demoSource, core.Options{
		Strategy: core.CGCMOptimized, Tracer: tr, Async: async,
	})
	if err != nil {
		t.Fatal(err)
	}
	name := "sync.json"
	if async {
		name = "async.json"
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteChrome(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeLiveAndTrace checks the headline mode both ways — live
// compile+run and exported-trace file — and that the two agree exactly:
// a trace is a complete analyzable artifact.
func TestAnalyzeLiveAndTrace(t *testing.T) {
	src := writeDemo(t)
	var live, fromFile bytes.Buffer
	if code := run([]string{src}, &live, &live); code != 0 {
		t.Fatalf("live exit %d:\n%s", code, live.String())
	}
	for _, want := range []string{"limiting factor: Comm.", "what-if replay", "zero-comm", "gpu-2x", "perfect-overlap", "sums to wall"} {
		if !strings.Contains(live.String(), want) {
			t.Errorf("live output missing %q:\n%s", want, live.String())
		}
	}
	tf := writeDemoTrace(t, t.TempDir(), false)
	if code := run([]string{tf}, &fromFile, &fromFile); code != 0 {
		t.Fatalf("trace-file exit %d:\n%s", code, fromFile.String())
	}
	if live.String() != fromFile.String() {
		t.Errorf("trace-file analysis differs from live analysis:\n--- live ---\n%s--- file ---\n%s",
			live.String(), fromFile.String())
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

// TestDiffTraces checks the two-trace-file attribution agrees with the
// one-source live diff: the exported artifacts carry everything the
// attribution needs.
func TestDiffTraces(t *testing.T) {
	dir := t.TempDir()
	a := writeDemoTrace(t, dir, false)
	b := writeDemoTrace(t, dir, true)
	var fromFiles bytes.Buffer
	if code := run([]string{"-diff", a, b}, &fromFiles, &fromFiles); code != 0 {
		t.Fatalf("exit %d:\n%s", code, fromFiles.String())
	}
	var live bytes.Buffer
	if code := run([]string{"-diff", writeDemo(t)}, &live, &live); code != 0 {
		t.Fatalf("exit %d:\n%s", code, live.String())
	}
	// Same numbers, different labels: the per-class attribution rows
	// (which carry no labels) must match exactly.
	rows := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) > 0 {
				switch f[0] {
				case "GPU", "Comm.", "CPU", "Overhead", "Stall", "total":
					out = append(out, line)
				}
			}
		}
		return out
	}
	fr, lr := rows(fromFiles.String()), rows(live.String())
	if len(fr) == 0 || len(fr) != len(lr) {
		t.Fatalf("attribution rows: %d vs %d", len(fr), len(lr))
	}
	for i := range fr {
		if fr[i] != lr[i] {
			t.Errorf("trace-file diff row differs from live diff:\n%s\n%s", fr[i], lr[i])
		}
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
		t.Errorf("foreign trace exit %d, want 1", code)
	}
	if code := run([]string{"-diff", bad, bad, bad}, &out, &out); code != 2 {
		t.Errorf("-diff with three args exit %d, want 2", code)
	}
	if code := run([]string{"-diff", bad}, &out, &out); code != 2 {
		t.Errorf("-diff with one json exit %d, want 2", code)
	}
}
