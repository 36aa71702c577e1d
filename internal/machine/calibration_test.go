package machine

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCalibrationTable: the value column of EXPERIMENTS.md's "Timing
// model calibration" table is DefaultCostModel, row for row.
func TestCalibrationTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Timing model calibration")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"Timing model calibration\" section")
	}
	cells := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		row := strings.Split(line, "|")
		if len(row) < 4 || strings.HasPrefix(strings.TrimSpace(row[1]), "---") || strings.TrimSpace(row[1]) == "parameter" {
			continue
		}
		cells[strings.TrimSpace(row[1])] = strings.TrimSpace(row[2])
	}
	c := DefaultCostModel()
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
	want := map[string]string{
		"CPU op":               num(c.CPUOp*1e9) + " ns",
		"GPU op":               fmt.Sprintf("%s ns/core, %d cores", num(c.GPUOp*1e9), c.GPUCores),
		"kernel launch":        fmt.Sprintf("%s us CPU + %s us GPU", num(c.LaunchCPU*1e6), num(c.LaunchGPU*1e6)),
		"transfer latency":     num(c.TransferLat*1e6) + " us",
		"transfer bandwidth":   num(1/c.TransferPerB/1e9) + " GB/s *effective*",
		"cuMemAlloc":           num(c.AllocGPU*1e6) + " us",
		"inspector per access": num(c.InspectorPerOp*1e9) + " ns",
	}
	for param, w := range want {
		got, ok := cells[param]
		switch {
		case !ok:
			t.Errorf("calibration table has no %q row (want %q)", param, w)
		case got != w:
			t.Errorf("calibration table row %q says %q, DefaultCostModel says %q", param, got, w)
		}
	}
	for param := range cells {
		if _, ok := want[param]; !ok {
			t.Errorf("calibration table row %q names no cost-model field", param)
		}
	}
}
