package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// slowSource launches far more kernels than a short -timeout allows.
const slowSource = `int main() {
	int n = 256;
	float *a = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) a[i] = (float)i;
	for (int t = 0; t < 200000; t++) {
		for (int i = 0; i < n; i++) a[i] = a[i] * 1.0001 + 0.5;
	}
	print_float(a[0]);
	free(a);
	return 0;
}`

// TestTimeoutFlag: a huge problem under -timeout aborts cleanly with
// the typed cancellation message and leaks no goroutines.
func TestTimeoutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.c")
	if err := os.WriteFile(path, []byte(slowSource), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for _, mode := range [][]string{{}, {"-compare"}} {
		var stdout, stderr bytes.Buffer
		code := run(append(mode, "-timeout", "50ms", path), &stdout, &stderr)
		if code == 0 {
			t.Fatalf("%v: run completed despite -timeout 50ms", mode)
		}
		if !strings.Contains(stderr.String(), "aborted by -timeout") {
			t.Fatalf("%v: stderr %q lacks the typed timeout message", mode, stderr.String())
		}
		if !strings.Contains(stderr.String(), "run canceled") {
			t.Fatalf("%v: stderr %q does not surface the interp cancellation", mode, stderr.String())
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after -timeout abort: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimeoutFlagNotHit: a generous -timeout does not disturb a normal
// run.
func TestTimeoutFlagNotHit(t *testing.T) {
	path := writeDemo(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timeout", "1m", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
}
