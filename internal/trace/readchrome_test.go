package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadChromeGolden proves the import is the exact inverse of the
// export: parsing the golden file and re-exporting must reproduce it
// byte for byte, and the recovered spans must equal the originals.
func TestReadChromeGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "chrome_trace.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	spans, phases, err := ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantSpans, wantPhases := fixedSpans()
	if len(spans) != len(wantSpans) {
		t.Fatalf("got %d spans, want %d", len(spans), len(wantSpans))
	}
	for i := range spans {
		if spans[i] != wantSpans[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], wantSpans[i])
		}
	}
	if len(phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d", len(phases), len(wantPhases))
	}
	for i := range phases {
		if phases[i] != wantPhases[i] {
			t.Errorf("phase %d = %+v, want %+v", i, phases[i], wantPhases[i])
		}
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans, phases); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("round-trip drifted from the golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), raw)
	}
}

// TestReadChromeUlpTimes stresses the time recovery with values whose
// microsecond scaling rounds: thirds, sevenths, and long dependent
// chains of them. Byte-lossless means export(import(export(x))) ==
// export(x) even when ts/1e6 is not a preimage of ts.
func TestReadChromeUlpTimes(t *testing.T) {
	var spans []Span
	cursor := 0.0
	for i := 0; i < 200; i++ {
		d := 1e-6 / float64(3+i%7)
		spans = append(spans, Span{Kind: KindCPU, Lane: LaneCPU, Start: cursor, End: cursor + d})
		cursor += d
	}
	spans = append(spans,
		Span{Kind: KindIssue, Lane: LaneCPU, Start: cursor, End: cursor, Flow: 42},
		Span{Kind: KindHtoD, Lane: LaneStreamBase, Start: cursor + 1e-9/3, End: cursor + 2e-7/3, Bytes: 1 << 40, Flow: 42},
	)
	var first bytes.Buffer
	if err := WriteChromeSpans(&first, spans, nil); err != nil {
		t.Fatal(err)
	}
	got, phases, err := ReadChrome(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 0 {
		t.Fatalf("phantom phases: %+v", phases)
	}
	var second bytes.Buffer
	if err := WriteChromeSpans(&second, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("re-export of imported trace drifted from the original")
	}
	if got[len(got)-1].Flow != 42 || got[len(got)-2].Flow != 42 {
		t.Errorf("flow ids lost: %+v", got[len(got)-2:])
	}
}

// TestReadChromeRejects locks the failure modes: anything that is not a
// cgcm chrome export must produce an error, not garbage spans.
func TestReadChromeRejects(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"invalid JSON", `{"traceEvents": [`},
		{"not an object", `[1, 2, 3]`},
		{"missing traceEvents", `{"displayTimeUnit": "ms"}`},
		{"foreign top-level field", `{"traceEvents": [], "otherData": {}}`},
		{"foreign event field", `{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0, "tdur": 3}]}`},
		{"foreign pid", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "X", "ts": 0, "dur": 1, "pid": 7, "tid": 0}]}`},
		{"foreign category", `{"traceEvents": [{"name": "x", "cat": "toplevel", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0}]}`},
		{"foreign phase", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}`},
		{"complete event without dur", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]}`},
		{"negative lane", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": -1}]}`},
		{"foreign span arg", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0, "args": {"weight": 3}}]}`},
		{"non-numeric bytes", `{"traceEvents": [{"name": "x", "cat": "cpu", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0, "args": {"bytes": "many"}}]}`},
		{"orphan flow event", `{"traceEvents": [{"name": "async-copy", "cat": "flow", "ph": "s", "ts": 0, "pid": 1, "tid": 0, "id": 1}]}`},
		{"foreign compiler event", `{"traceEvents": [{"name": "x", "cat": "gc", "ph": "X", "ts": 0, "dur": 1, "pid": 2, "tid": 0}]}`},
	}
	for _, tc := range cases {
		if _, _, err := ReadChrome(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestReadChromeLive round-trips a real program's full trace, flows,
// faults, stream lanes and all.
func TestReadChromeLive(t *testing.T) {
	tr := New()
	tr.Emit(Span{Kind: KindCPU, Lane: LaneCPU, Start: 0, End: 0.25e-6})
	tr.Emit(Span{Kind: KindIssue, Lane: LaneCPU, Start: 0.25e-6, End: 0.25e-6, Flow: 7, Epoch: 1})
	tr.Emit(Span{Kind: KindHtoD, Lane: LaneStreamBase + 1, Start: 0.3e-6, End: 0.9e-6, Bytes: 4096, Unit: "a", Flow: 7, Epoch: 1})
	tr.Emit(Span{Kind: KindKernel, Lane: LaneGPU, Name: "k0", Start: 0.9e-6, End: 2.4e-6, Line: 12, Epoch: 1})
	tr.RecordPhases(PhaseSpan{Name: "sema", HostNS: 1, Activity: 0, Note: "x"})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	spans, phases, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteChromeSpans(&again, spans, phases); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("live trace round-trip drifted")
	}
	want := tr.Spans()
	for i := range spans {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
}
