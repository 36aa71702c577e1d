package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// demoSource mirrors the cgcmc test fixture: a promotable timestep loop
// over two heap units, plus loops the parallelizer rejects.
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

// TestProfN covers the -prof-n flag: it bounds the hot-lines table,
// visible in the "(top N of M)" header.
func TestProfN(t *testing.T) {
	path := writeDemo(t)
	for _, n := range []string{"1", "3"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-prof", "-prof-n", n, path}, &stdout, &stderr); code != 0 {
			t.Fatalf("-prof-n %s: exit %d, stderr:\n%s", n, code, stderr.String())
		}
		if want := "(top " + n + " of"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-prof-n %s: profile header missing %q:\n%s", n, want, stderr.String())
		}
	}
}

// TestRemarksIncludeRuntime checks that cgcmrun -remarks carries the
// execution-time layer: ablating map promotion leaves the grid cyclic,
// and the runtime remark names its allocation site.
func TestRemarksIncludeRuntime(t *testing.T) {
	path := writeDemo(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-remarks", "-ablate", "mappromo", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "remark[runtime]") || !strings.Contains(out, "stayed cyclic") {
		t.Fatalf("no runtime remark for the cyclic unit:\n%s", out)
	}
	// The allocation site (malloc on line 2) must anchor the remark.
	if !strings.Contains(out, path+":2: remark[runtime]") {
		t.Fatalf("runtime remark not anchored to the allocation site:\n%s", out)
	}
}

// TestTraceOutSchemaUnderAblation exercises -trace-out with a pass
// ablated: the exported document must stay valid Chrome trace-event
// JSON (the bench suite covers every PassSet; this guards the CLI path).
func TestTraceOutSchemaUnderAblation(t *testing.T) {
	path := writeDemo(t)
	tracePath := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-out", tracePath, "-ablate", "gluekernel", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

// TestCompareHonorsRunFlags: -compare runs its four systems under the
// same run flags a single run gets. -async moves the unoptimized wall
// (every map and unmap of the timestep loop overlaps) while the table
// still prints all four rows — the comparison checks every system's
// output against sequential before it prints the row.
func TestCompareHonorsRunFlags(t *testing.T) {
	path := writeDemo(t)
	table := func(args ...string) map[string]string {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, path), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		walls := make(map[string]string)
		for _, line := range strings.Split(stdout.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 1 {
				walls[f[0]] = f[1]
			}
		}
		if len(walls) != 4 {
			t.Fatalf("%v: want four system rows:\n%s", args, stdout.String())
		}
		return walls
	}
	sync, async := table("-compare"), table("-compare", "-async")
	if sync["cgcm-unoptimized"] == async["cgcm-unoptimized"] {
		t.Errorf("-async left the unoptimized wall at %s", sync["cgcm-unoptimized"])
	}
	if sync["sequential"] != async["sequential"] {
		t.Errorf("-async moved the sequential wall: %s vs %s", sync["sequential"], async["sequential"])
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	path := writeDemo(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-strategy", "bogus", path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
