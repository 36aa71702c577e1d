package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHelpGolden pins the -help output, and with it which of the shared
// execution flags (internal/cli's RunFlags) this command registers: only
// those its run reads. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/...
func TestHelpGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-help"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-help exit = %d, want 2", code)
	}
	golden := filepath.Join("testdata", "help.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if stderr.String() != string(want) {
		t.Errorf("-help output changed:\n--- want:\n%s--- got:\n%s", want, stderr.String())
	}
}

// TestVersionFlag checks -version prints the build identity and exits 0
// without requiring an input file.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "cgcmrun ") {
		t.Errorf("-version output %q does not lead with the command name", stdout.String())
	}
}
