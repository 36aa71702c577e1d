package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareExitCode pins the contract CI consumers depend on:
// cgcmbench -compare exits 0 when every program matches the baseline and
// 1 when one differs. Uses -program to keep the run to one benchmark; the
// simulation is deterministic, so a self-compare diffs at exactly zero
// and a doctored baseline reliably fails.
func TestCompareExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark program under all four systems")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-program", "bicg", "-baseline", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run: exit %d, stderr:\n%s", code, stderr.String())
	}

	// Clean self-compare: identical simulated walls, exit 0.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-program", "bicg", "-compare", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean compare: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "match the baseline") {
		t.Fatalf("clean compare verdict missing:\n%s", stdout.String())
	}

	// Halve every baseline wall: the current run is now 100% slower than
	// the doctored baseline.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rows := doc["rows"].([]any)
	for _, r := range rows {
		row := r.(map[string]any)
		for _, k := range []string{"wall_seq", "wall_inspector", "wall_cgcm_unopt", "wall_cgcm_opt"} {
			row[k] = row[k].(float64) / 2
		}
	}
	doctored, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-program", "bicg", "-compare", base}, &stdout, &stderr); code != 1 {
		t.Fatalf("breached compare: exit %d, want 1; stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "FAIL") {
		t.Fatalf("breached compare verdict missing FAIL:\n%s", stdout.String())
	}
}

// TestAblateDiffNamesPromotedUnits runs the -ablate-diff mode end to end
// for one program and checks the promoted units carry explanations.
func TestAblateDiffNamesPromotedUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark program twice")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-program", "jacobi-2d-imper", "-ablate-diff", "mappromo"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Ablation diff: jacobi-2d-imper",
		"ablate {none} vs {mappromo}",
		"promoted by the ablated passes",
		"fixed by mappromo",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablate-diff output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownProgramRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-program", "no-such-benchmark"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
