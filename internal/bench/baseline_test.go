package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/machine"
)

// syntheticRow builds a measured row from bare wall times and transfer
// totals — enough for the baseline/compare machinery, which reads only
// Stats.
func syntheticRow(name string, seq, ie, un, opt float64) *Row {
	mk := func(wall float64) *core.Report {
		return &core.Report{Stats: machine.Stats{
			Wall: wall, BytesHtoD: 4096, NumHtoD: 4, BytesDtoH: 2048, NumDtoH: 2,
		}}
	}
	return &Row{
		Program:   Program{Name: name, Suite: "synthetic"},
		Seq:       mk(seq),
		IE:        mk(ie),
		Unopt:     mk(un),
		Opt:       mk(opt),
		SpeedupIE: seq / ie, SpeedupUnopt: seq / un, SpeedupOpt: seq / opt,
		Limiting: "gpu",
		HostNS:   12345,
	}
}

func syntheticRows() []*Row {
	return []*Row{
		syntheticRow("alpha", 1.0, 0.5, 0.8, 0.4),
		syntheticRow("beta", 2.0, 1.0, 1.5, 0.9),
		syntheticRow("gamma", 3.0, 1.5, 2.5, 1.2),
	}
}

// TestBaselineRoundTrip freezes rows, reads them back, and checks the
// document survives the trip bit-exactly.
func TestBaselineRoundTrip(t *testing.T) {
	rows := syntheticRows()
	path := filepath.Join(t.TempDir(), "BENCH_0.json")
	if err := NewBaseline(rows).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BaselineSchema {
		t.Fatalf("schema = %d, want %d", got.Schema, BaselineSchema)
	}
	if len(got.Rows) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(rows))
	}
	for i, br := range got.Rows {
		if br.Program != rows[i].Name || br.WallOpt != rows[i].Opt.Stats.Wall {
			t.Errorf("row %d mismatch: %+v", i, br)
		}
		if br.XferBytesOpt != 4096+2048 || br.XferCopiesOpt != 4+2 {
			t.Errorf("row %d transfer totals: %+v", i, br)
		}
	}
}

// TestBaselineSchemaRejected: a future schema must be refused, not
// mis-diffed.
func TestBaselineSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_0.json")
	b := NewBaseline(syntheticRows())
	b.Schema = BaselineSchema + 1
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema baseline accepted (err = %v)", err)
	}
}

// TestCompareCleanRunPasses: diffing a run against the baseline frozen
// from the same rows yields all-zero deltas and no failures.
func TestCompareCleanRunPasses(t *testing.T) {
	rows := syntheticRows()
	cmp := Compare(NewBaseline(rows), rows)
	if cmp.Failed() {
		t.Fatal("identical run failed the gate")
	}
	for _, d := range cmp.Rows {
		if d.WallDelta != [4]float64{} || d.XferBytesDelta != 0 || d.Drift != "" {
			t.Errorf("%s: nonzero delta on identical run: %+v", d.Program, d)
		}
	}
	var out strings.Builder
	RenderComparison(&out, cmp)
	if !strings.Contains(out.String(), "all 3 programs match the baseline") {
		t.Errorf("render did not report a clean pass:\n%s", out.String())
	}
}

// TestCompareFlagsSlowdown: the comparison is exact. A wall one part in a
// million slower or faster than the baseline fails, as does one more copy
// with the same bytes; a change far below a float's last printed digit
// does not.
func TestCompareFlagsSlowdown(t *testing.T) {
	base := NewBaseline(syntheticRows())
	for _, c := range []struct {
		name  string
		edit  func(r *Row)
		drift string // "" when the edit must pass
	}{
		{"slower", func(r *Row) { r.Opt.Stats.Wall *= 1 + 1e-6 }, "opt wall +0.0001%"},
		{"faster", func(r *Row) { r.IE.Stats.Wall *= 1 - 1e-6 }, "inspector wall -0.0001%"},
		{"one more copy", func(r *Row) { r.Unopt.Stats.NumHtoD++ }, "unopt transfers 6144 B in 7 copies, baseline 6144 B in 6"},
		{"more bytes", func(r *Row) { r.Opt.Stats.BytesDtoH++ }, "opt transfers 6145 B in 6 copies, baseline 6144 B in 6"},
		{"last bit", func(r *Row) { r.Seq.Stats.Wall *= 1 + 1e-15 }, ""},
	} {
		rows := syntheticRows()
		c.edit(rows[1])
		cmp := Compare(base, rows)
		if cmp.Failed() != (c.drift != "") {
			t.Errorf("%s: Failed() = %v", c.name, cmp.Failed())
		}
		for _, d := range cmp.Rows {
			want := ""
			if d.Program == "beta" {
				want = c.drift
			}
			if d.Drift != want || d.Failed != (want != "") {
				t.Errorf("%s: %s drift %q (failed %v), want %q", c.name, d.Program, d.Drift, d.Failed, want)
			}
		}
		if c.drift == "" {
			continue
		}
		var out strings.Builder
		RenderComparison(&out, cmp)
		if !strings.Contains(out.String(), "FAIL ("+c.drift+")") || !strings.Contains(out.String(), "1 of 3 programs differ") {
			t.Errorf("%s: render did not surface the failure:\n%s", c.name, out.String())
		}
	}
}

// TestCompareMissingProgramFails: losing a benchmark is a coverage
// regression and must fail.
func TestCompareMissingProgramFails(t *testing.T) {
	base := NewBaseline(syntheticRows())
	rows := syntheticRows()[:2] // gamma vanished
	cmp := Compare(base, rows)
	if !cmp.Failed() {
		t.Fatal("missing program passed the gate")
	}
	found := false
	for _, d := range cmp.Rows {
		if d.Program == "gamma" {
			found = true
			if !d.Missing || !d.Failed {
				t.Errorf("gamma delta row: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("no delta row for the missing program")
	}
}

// TestCompareNewProgramInformational: a program added since the baseline
// cannot regress; it is listed but never fails.
func TestCompareNewProgramInformational(t *testing.T) {
	base := NewBaseline(syntheticRows())
	rows := append(syntheticRows(), syntheticRow("delta", 1, 1, 1, 1))
	cmp := Compare(base, rows)
	if cmp.Failed() {
		t.Fatal("new program failed the gate")
	}
	if len(cmp.New) != 1 || cmp.New[0] != "delta" {
		t.Fatalf("New = %v, want [delta]", cmp.New)
	}
}
