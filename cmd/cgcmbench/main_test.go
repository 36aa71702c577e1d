package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDeviceReportsTheLadder: -gpu-mem shapes the measurement runs, and
// cgcmbench reports what the optimized run's fault ladder did. 2mm on a
// 64 KiB device evicts seven times and falls back to the CPU for two
// kernels, with output still identical to sequential.
func TestDeviceReportsTheLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark program under all four systems")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-q", "-program", "2mm", "-gpu-mem", "65536"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"Resilience: the optimized run's fault ladder (no injected faults, device memory 65536 bytes)",
		"2mm                    0       7       0       0         2  cpu-fallback",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
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
