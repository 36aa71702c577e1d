// Baseline and regression gating: a measured suite freezes into a
// schema-versioned JSON baseline (BENCH_<n>.json), and later runs diff
// against it (TestRunAllRecordsTheSuite holds the suite to BENCH_0/1). The simulated machine is deterministic, so wall times and
// transfer totals compare exactly — any drift is a real behavior change
// in the compiler, runtime, or cost model, not measurement noise. Only
// host_ns fields depend on the host and are excluded from gating.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"cgcm/internal/machine"
)

// BaselineSchema versions the baseline JSON document. Readers reject
// other schemas instead of mis-diffing fields that changed meaning.
// Schema 2: the limiting column switched from the largest-time-share
// heuristic to critical-path classification.
const BaselineSchema = 2

// BaselineRow freezes one program's measurements: the four simulated
// walls, the derived speedups, and the communication totals of the two
// CGCM systems.
type BaselineRow struct {
	Program string  `json:"program"`
	Suite   string  `json:"suite"`
	WallSeq float64 `json:"wall_seq"`
	WallIE  float64 `json:"wall_inspector"`
	WallUn  float64 `json:"wall_cgcm_unopt"`
	WallOpt float64 `json:"wall_cgcm_opt"`

	SpeedupIE    float64 `json:"speedup_inspector"`
	SpeedupUnopt float64 `json:"speedup_cgcm_unopt"`
	SpeedupOpt   float64 `json:"speedup_cgcm_opt"`

	Limiting string `json:"limiting"`

	// Transfer totals (bytes and copy counts, both directions summed)
	// for the two CGCM systems; exact, so they gate at zero tolerance.
	XferBytesUn   int64 `json:"xfer_bytes_cgcm_unopt"`
	XferCopiesUn  int64 `json:"xfer_copies_cgcm_unopt"`
	XferBytesOpt  int64 `json:"xfer_bytes_cgcm_opt"`
	XferCopiesOpt int64 `json:"xfer_copies_cgcm_opt"`

	// HostNS is real host time spent measuring this program (all four
	// systems), in nanoseconds — the only host-dependent field; it is
	// informational and never gated on.
	HostNS int64 `json:"host_ns"`
}

// Baseline is the top-level BENCH_<n>.json document.
type Baseline struct {
	Schema       int           `json:"schema"`
	Workers      int           `json:"workers"` // 0 = GOMAXPROCS
	Rows         []BaselineRow `json:"rows"`
	GeomeanIE    float64       `json:"geomean_inspector"`
	GeomeanUnopt float64       `json:"geomean_cgcm_unopt"`
	GeomeanOpt   float64       `json:"geomean_cgcm_opt"`
	HostNS       int64         `json:"host_ns_total"`
}

// NewBaseline freezes measured rows into a baseline document.
func NewBaseline(rows []*Row) *Baseline {
	b := &Baseline{Schema: BaselineSchema, Workers: Workers}
	for _, r := range rows {
		br := BaselineRow{
			Program: r.Name, Suite: r.Suite,
			WallSeq: r.Seq.Stats.Wall, WallIE: r.IE.Stats.Wall,
			WallUn: r.Unopt.Stats.Wall, WallOpt: r.Opt.Stats.Wall,
			SpeedupIE: r.SpeedupIE, SpeedupUnopt: r.SpeedupUnopt, SpeedupOpt: r.SpeedupOpt,
			Limiting: r.Limiting, HostNS: r.HostNS,
		}
		br.XferBytesUn = r.Unopt.Stats.BytesHtoD + r.Unopt.Stats.BytesDtoH
		br.XferCopiesUn = r.Unopt.Stats.NumHtoD + r.Unopt.Stats.NumDtoH
		br.XferBytesOpt = r.Opt.Stats.BytesHtoD + r.Opt.Stats.BytesDtoH
		br.XferCopiesOpt = r.Opt.Stats.NumHtoD + r.Opt.Stats.NumDtoH
		b.Rows = append(b.Rows, br)
		b.HostNS += r.HostNS
	}
	b.GeomeanIE, b.GeomeanUnopt, b.GeomeanOpt, _, _, _ = Geomeans(rows)
	return b
}

// WriteFile writes the baseline as indented JSON to path.
func (b *Baseline) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads and validates a baseline document.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("baseline %s: schema %d, want %d (re-create with UPDATE_GOLDEN=1 go test -run TestRunAllRecordsTheSuite ./internal/bench)",
			path, b.Schema, BaselineSchema)
	}
	return &b, nil
}

// wallTolerance is the relative wall change Compare lets through. The
// simulation is deterministic and a float64 survives the JSON round trip
// exactly, so a clean run diffs at zero; the margin only keeps the gate
// from depending on that last bit.
const wallTolerance = 1e-9

// DeltaRow is one program's baseline-versus-current diff. Deltas are
// relative: (new-old)/old, positive = slower / more bytes.
type DeltaRow struct {
	Program string
	// WallDelta holds the per-strategy relative wall change, in the
	// order sequential, inspector, unoptimized CGCM, optimized CGCM.
	WallDelta [4]float64
	// XferBytesDelta is the relative change in optimized-CGCM transfer
	// bytes.
	XferBytesDelta float64
	// Drift names the first measurement that differs from the baseline;
	// empty when none does.
	Drift  string
	Failed bool
	// Missing marks a baseline program absent from the current run —
	// always a failure (coverage loss).
	Missing bool
}

// Comparison is the outcome of diffing a run against a baseline.
type Comparison struct {
	Rows []DeltaRow
	// New lists programs measured now but absent from the baseline
	// (informational: they cannot regress).
	New []string
}

// Failed reports whether any row drifted or went missing.
func (c *Comparison) Failed() bool {
	for _, r := range c.Rows {
		if r.Failed {
			return true
		}
	}
	return false
}

// rel returns (new-old)/old, treating a zero old value as no change
// when new is also zero and total regression otherwise.
func rel(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 1
	}
	return (newV - oldV) / oldV
}

var strategyNames = [4]string{"seq", "inspector", "unopt", "opt"}

// Compare diffs measured rows against a baseline. The comparison is
// exact: a program fails when any strategy's simulated wall moved by more
// than wallTolerance (relative) in either direction, when the transfer
// bytes or copy counts of either CGCM system changed at all, or when it
// is missing from the run.
func Compare(base *Baseline, rows []*Row) *Comparison {
	cmp := &Comparison{}
	byName := make(map[string]*Row, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	seen := make(map[string]bool, len(base.Rows))
	for _, br := range base.Rows {
		seen[br.Program] = true
		r, ok := byName[br.Program]
		if !ok {
			cmp.Rows = append(cmp.Rows, DeltaRow{Program: br.Program, Missing: true, Failed: true})
			continue
		}
		d := DeltaRow{Program: br.Program}
		d.WallDelta[0] = rel(br.WallSeq, r.Seq.Stats.Wall)
		d.WallDelta[1] = rel(br.WallIE, r.IE.Stats.Wall)
		d.WallDelta[2] = rel(br.WallUn, r.Unopt.Stats.Wall)
		d.WallDelta[3] = rel(br.WallOpt, r.Opt.Stats.Wall)
		d.XferBytesDelta = rel(float64(br.XferBytesOpt),
			float64(r.Opt.Stats.BytesHtoD+r.Opt.Stats.BytesDtoH))
		for i, w := range d.WallDelta {
			if d.Drift == "" && math.Abs(w) > wallTolerance {
				d.Drift = fmt.Sprintf("%s wall %+.3g%%", strategyNames[i], w*100)
			}
		}
		if d.Drift == "" {
			d.Drift = xferDrift("unopt", br.XferBytesUn, br.XferCopiesUn, r.Unopt.Stats)
		}
		if d.Drift == "" {
			d.Drift = xferDrift("opt", br.XferBytesOpt, br.XferCopiesOpt, r.Opt.Stats)
		}
		d.Failed = d.Drift != ""
		cmp.Rows = append(cmp.Rows, d)
	}
	for _, r := range rows {
		if !seen[r.Name] {
			cmp.New = append(cmp.New, r.Name)
		}
	}
	return cmp
}

// xferDrift describes how one system's transfer totals differ from the
// baseline's, or returns "" when they are equal.
func xferDrift(system string, bytes, copies int64, st machine.Stats) string {
	nb, nc := st.BytesHtoD+st.BytesDtoH, st.NumHtoD+st.NumDtoH
	if nb == bytes && nc == copies {
		return ""
	}
	return fmt.Sprintf("%s transfers %d B in %d copies, baseline %d B in %d", system, nb, nc, bytes, copies)
}

// RenderComparison prints the diff in baseline order.
func RenderComparison(w io.Writer, cmp *Comparison) {
	fmt.Fprintf(w, "Baseline comparison (exact: walls within %g relative, transfers equal)\n", wallTolerance)
	fmt.Fprintln(w, strings.Repeat("-", 86))
	fmt.Fprintf(w, "%-16s %9s %9s %9s %9s %11s  %s\n",
		"program", "seq", "inspector", "unopt", "opt", "xfer bytes", "verdict")
	pct := func(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }
	nFail := 0
	for _, d := range cmp.Rows {
		if d.Missing {
			fmt.Fprintf(w, "%-16s %49s  FAIL (missing from run)\n", d.Program, "")
			nFail++
			continue
		}
		verdict := "ok"
		if d.Failed {
			verdict = "FAIL (" + d.Drift + ")"
			nFail++
		}
		fmt.Fprintf(w, "%-16s %9s %9s %9s %9s %11s  %s\n",
			d.Program, pct(d.WallDelta[0]), pct(d.WallDelta[1]),
			pct(d.WallDelta[2]), pct(d.WallDelta[3]), pct(d.XferBytesDelta), verdict)
	}
	for _, name := range cmp.New {
		fmt.Fprintf(w, "%-16s %49s  new (not in baseline)\n", name, "")
	}
	fmt.Fprintln(w, strings.Repeat("-", 86))
	if nFail > 0 {
		fmt.Fprintf(w, "%d of %d programs differ from the baseline\n", nFail, len(cmp.Rows))
	} else {
		fmt.Fprintf(w, "all %d programs match the baseline\n", len(cmp.Rows))
	}
}
