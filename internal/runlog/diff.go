// Ledger diffing between two stored records: the allocation-unit half
// of -regress. The critical-path diff says which span classes moved;
// this says which allocation units moved them — pattern flips, copy and
// byte deltas, overlapped-byte deltas — and names the responsible pass
// or blocking reason from the records' remark streams, the way
// cgcmbench -ablate-diff explains an ablation. Units match across
// records by allocation site plus occurrence index, the same stable key
// the ablation diff uses: base addresses differ run to run, but the
// simulated machine allocates deterministically and the ledger lists
// units in base-address order.
package runlog

import (
	"fmt"
	"io"
	"slices"

	"cgcm/internal/remarks"
	"cgcm/internal/trace"
)

// UnitDelta is one allocation unit's communication change between two
// records. A / B sides are zero-valued with PatternNone when the unit
// is absent from that record's ledger.
type UnitDelta struct {
	Unit               string // remark-style label: name[:line][#n]
	PatternA, PatternB trace.Pattern
	CopiesA, CopiesB   int64 // HtoD + DtoH copies performed
	BytesA, BytesB     int64 // HtoD + DtoH bytes moved
	TripsA, TripsB     int64
	OverlapA, OverlapB int64 // overlapped bytes
	// Explain is the remark accounting for the change: the Applied
	// remark of the pass that promoted the unit, the overlap remark that
	// hid its copies, or the Missed remark blocking a still-cyclic unit.
	// Nil when no remark names the unit.
	Explain *remarks.Remark
}

// BytesDelta is the unit's transferred-byte change, B - A.
func (u *UnitDelta) BytesDelta() int64 { return u.BytesB - u.BytesA }

// changed reports whether anything the delta tracks moved.
func (u *UnitDelta) changed() bool {
	return u.PatternA != u.PatternB || u.CopiesA != u.CopiesB ||
		u.BytesA != u.BytesB || u.TripsA != u.TripsB || u.OverlapA != u.OverlapB
}

// changers are the passes whose Applied remarks explain a unit's change
// between two records: the promoters, and overlap, whose stream copies
// move a unit's overlapped bytes.
var changers = slices.Concat(remarks.Promoters, []string{"overlap"})

// DiffLedgers matches allocation units across two records and returns
// the units whose communication changed, in record-B ledger order with
// A-only units appended. The per-unit byte deltas sum exactly to the
// records' total comm-byte delta: ledger byte columns and Stats byte
// totals count the same transfers.
func DiffLedgers(a, b *Record) []UnitDelta {
	var out []UnitDelta
	for _, p := range trace.JoinUnits(a.Comm, b.Comm) {
		d := UnitDelta{Unit: p.UnitKey.String()}
		if u := p.A; u != nil {
			d.PatternA, d.TripsA, d.OverlapA = u.Pattern, u.RoundTrips, u.OverlappedBytes
			d.CopiesA, d.BytesA = u.HtoDCopies+u.DtoHCopies, u.BytesHtoD+u.BytesDtoH
		}
		if u := p.B; u != nil {
			d.PatternB, d.TripsB, d.OverlapB = u.Pattern, u.RoundTrips, u.OverlappedBytes
			d.CopiesB, d.BytesB = u.HtoDCopies+u.DtoHCopies, u.BytesHtoD+u.BytesDtoH
		}
		if d.changed() {
			d.Explain = explainDelta(b.Remarks, p, &d)
			out = append(out, d)
		}
	}
	return out
}

// explainDelta picks the remark of record B that accounts for a unit's
// change: for a unit cyclic in B, the blocking Missed remark, else the
// Runtime remark its ledger row raised; for a unit in B, cyclic in
// neither record, whose overlapped bytes moved, the overlap pass's
// Applied remark; otherwise (or failing that) the Applied remark of the
// pass that changed it.
func explainDelta(rs []remarks.Remark, p trace.UnitPair, d *UnitDelta) *remarks.Remark {
	switch {
	case d.PatternB == trace.PatternCyclic:
		if r := remarks.Explain(rs, remarks.Missed, p.Name, p.Line, remarks.Blockers...); r != nil {
			return r
		}
		return remarks.Explain(rs, remarks.Runtime, p.Name, p.Line, "runtime")
	case p.B != nil && d.PatternA != trace.PatternCyclic && d.OverlapA != d.OverlapB:
		if r := remarks.Explain(rs, remarks.Applied, p.Name, p.Line, "overlap"); r != nil {
			return r
		}
	}
	return remarks.Explain(rs, remarks.Applied, p.Name, p.Line, changers...)
}

// RenderUnitDeltas prints the per-unit attribution table for -regress.
func RenderUnitDeltas(w io.Writer, labelA, labelB string, ds []UnitDelta) {
	if len(ds) == 0 {
		fmt.Fprintln(w, "no allocation unit changed communication between the two records")
		return
	}
	fmt.Fprintf(w, "allocation-unit attribution (%s -> %s):\n", labelA, labelB)
	fmt.Fprintf(w, "  %-20s %-8s %-8s %13s %17s %9s %13s\n",
		"unit", labelA, labelB, "copies", "bytes", "trips", "overlapped")
	var sum int64
	for i := range ds {
		d := &ds[i]
		sum += d.BytesDelta()
		fmt.Fprintf(w, "  %-20s %-8s %-8s %5d -> %-5d %7d -> %-7d %2d -> %-3d %5d -> %-5d\n",
			d.Unit, d.PatternA, d.PatternB,
			d.CopiesA, d.CopiesB, d.BytesA, d.BytesB,
			d.TripsA, d.TripsB, d.OverlapA, d.OverlapB)
		if d.Explain != nil {
			why := d.Explain.Message
			if d.Explain.Kind == remarks.Missed {
				why = fmt.Sprintf("blocked: %s (%s)", d.Explain.Reason, why)
			}
			fmt.Fprintf(w, "      %s [%s]: %s\n", d.Explain.Kind, d.Explain.Pass, why)
		}
	}
	fmt.Fprintf(w, "  total transferred-byte delta across units: %+d (equals the records' comm-byte delta)\n", sum)
}
