package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cgcm/internal/trace"
)

// lineOps, kernel, copied and call build the events FromLog folds.
func lineOps(kernel string, site, line int, ops int64) trace.Event {
	return trace.Event{Kind: trace.EvLineOps, Lane: trace.LaneGPU, Label: kernel, Line: site, KernelLine: line, Ops: ops}
}

func kernel(name string, site int, start, end float64) trace.Event {
	return trace.Event{Kind: trace.EvKernel, Label: name, Line: site, Start: start, End: end}
}

func copied(kind trace.EventKind, unit string, line int, size int64) trace.Event {
	return trace.Event{Kind: kind, Base: 0x1000, Unit: unit, Line: line, Size: size, Copied: true}
}

func call(name string, line int, dur float64) trace.Event {
	return trace.Event{Kind: trace.EvCall, Label: name, Line: line, Dur: dur}
}

func sampleLog() []trace.Event {
	return []trace.Event{
		lineOps("main__doall1", 12, 14, 9000),
		lineOps("main__doall1", 12, 12, 500),
		kernel("main__doall1", 12, 1, 3),
		lineOps("main__doall1", 12, 14, 500), // accumulates with first
		kernel("main__doall1", 12, 5, 6),
		lineOps("main__doall2", 20, 21, 100),
		kernel("main__doall2", 20, 7, 7.5),
		copied(trace.EvMap, "a", 12, 2048),
		copied(trace.EvUnmap, "a", 12, 2048),
		copied(trace.EvUpload, "b", 20, 64),
		{Kind: trace.EvMap, Base: 0x1000, Unit: "a", Line: 12, Size: 2048}, // a residency skip: no row
		call("cgcm.map", 12, 0.001),
		call("cgcm.map", 12, 0.001),
		call("cgcm.unmap", 12, 0.002),
		{Kind: trace.EvHtoD, Label: "a", Start: 0, End: 1}, // a machine copy: no row
	}
}

func sample() *Profile { return FromLog("hot.c", sampleLog()) }

// TestNilProfile: a nil profile's accessors and renderers are zero-valued,
// and an empty log folds to an empty profile.
func TestNilProfile(t *testing.T) {
	if p := FromLog("t.c", nil); p == nil || p.File != "t.c" || p.TotalGPUOps != 0 || p.Lines != nil || p.Sites != nil {
		t.Fatalf("empty log folded to %+v", p)
	}
	var p *Profile
	if p.UnitTotals() != nil || p.RuntimeSeconds() != 0 {
		t.Fatalf("nil profile accessors must be zero-valued")
	}
	var buf bytes.Buffer
	if err := p.WriteFlat(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestProfileAggregation(t *testing.T) {
	p := sample()
	if p.TotalGPUOps != 10100 {
		t.Fatalf("total ops = %d, want 10100", p.TotalGPUOps)
	}
	// Lines sorted by descending ops; duplicates accumulated.
	if p.Lines[0].Line != 14 || p.Lines[0].GPUOps != 9500 {
		t.Fatalf("hottest line = %+v, want line 14 with 9500 ops", p.Lines[0])
	}
	if len(p.Lines) != 3 {
		t.Fatalf("got %d line samples, want 3", len(p.Lines))
	}
	// Sites from the kernel events, with per-site op totals joined in.
	if len(p.Sites) != 2 {
		t.Fatalf("got %d sites, want 2", len(p.Sites))
	}
	s := p.Sites[0]
	if s.Kernel != "main__doall1" || s.Launches != 2 || s.Wall != 3.0 || s.GPUOps != 10000 {
		t.Fatalf("site[0] = %+v", s)
	}
	if p.KernelWall != 3.5 {
		t.Fatalf("kernel wall = %v, want 3.5", p.KernelWall)
	}
	// Runtime totals.
	if got := p.RuntimeSeconds(); got != 0.004 {
		t.Fatalf("runtime seconds = %v, want 0.004", got)
	}

	// A launch that ran as CPU fallback: its lines fold into the fallback
	// columns and its site counts a fallback launch, never a GPU one.
	deg := degraded()
	if deg.TotalGPUOps != 10100 || deg.TotalFallbackOps != 100 {
		t.Fatalf("degraded totals = %d GPU, %d fallback; want 10100, 100", deg.TotalGPUOps, deg.TotalFallbackOps)
	}
	want := SiteSample{Kernel: "main__doall2", Site: 20, Launches: 1, Wall: 0.5, GPUOps: 100, FallbackLaunches: 1, FallbackOps: 100}
	if got := deg.Sites[1]; got != want {
		t.Fatalf("degraded site[1] = %+v, want %+v", got, want)
	}
	if got := deg.Lines[2]; got.Line != 21 || got.GPUOps != 100 || got.FallbackOps != 100 {
		t.Fatalf("degraded line 21 = %+v", got)
	}
}

// degraded is the sample run with one more launch of main__doall2, after
// the device failed.
func degraded() *Profile {
	return FromLog("hot.c", append(sampleLog(),
		trace.Event{Kind: trace.EvLineOps, Lane: trace.LaneCPU, Label: "main__doall2", Line: 20, KernelLine: 21, Ops: 100},
		trace.Event{Kind: trace.EvFallback, Label: "main__doall2", Line: 20, Start: 8, End: 9},
	))
}

func TestUnitTotals(t *testing.T) {
	log := append(sampleLog(), copied(trace.EvMap, "a", 40, 1000)) // same unit, different line
	tot := FromLog("hot.c", log).UnitTotals()
	a := tot["a"]
	if a.HtoDBytes != 3048 || a.HtoDCount != 2 || a.DtoHBytes != 2048 || a.DtoHCount != 1 {
		t.Fatalf("unit a totals = %+v", a)
	}
	if b := tot["b"]; b.HtoDBytes != 64 || b.DtoHBytes != 0 {
		t.Fatalf("unit b totals = %+v", b)
	}
}

func TestWriteFlat(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteFlat(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"CGCM exact profile: hot.c",
		"10100 simulated ops, 3 launches",
		"Hot lines (top 2 of 3):",
		"hot.c:14",
		"94.1%", // 9500/10100
		"main__doall1 (hot.c:12)",
		"Launch sites:",
		"Transfers:",
		"Runtime calls:",
		"cgcm.unmap",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("flat output missing %q:\n%s", want, out)
		}
	}
	// Top-2 cut: line 21 (the coldest) must not appear in the hot-lines table.
	if strings.Contains(out, "hot.c:21  ") {
		t.Fatalf("topN cut did not apply:\n%s", out)
	}
	// Fallback columns appear only on a degraded run.
	if strings.Contains(out, "allback") {
		t.Fatalf("healthy profile renders fallback columns:\n%s", out)
	}
	buf.Reset()
	if err := degraded().WriteFlat(&buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"CPU fallback: 100 simulated ops, 1 launches",
		"FALLBACK OPS",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("degraded flat output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteFolded(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d folded lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "main__doall1@hot.c:12;hot.c:14 9500" {
		t.Fatalf("folded[0] = %q", lines[0])
	}
	// Every line must be "frames count" with frames ;-separated.
	for _, l := range lines {
		parts := strings.Split(l, " ")
		if len(parts) != 2 || !strings.Contains(parts[0], ";") {
			t.Fatalf("malformed folded line %q", l)
		}
	}
	// A line that ran only as CPU fallback spent no GPU cycles.
	buf.Reset()
	cpuOnly := FromLog("hot.c", []trace.Event{{Kind: trace.EvLineOps, Lane: trace.LaneCPU, Label: "k", Line: 1, KernelLine: 2, Ops: 5}})
	if err := cpuOnly.WriteFolded(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("fallback-only line folded to %q (err %v)", buf.String(), err)
	}
}

func TestProfileJSON(t *testing.T) {
	p := sample()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalGPUOps != p.TotalGPUOps || len(back.Lines) != len(p.Lines) {
		t.Fatalf("JSON round-trip mismatch")
	}
}
