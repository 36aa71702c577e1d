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
	"strings"

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

// appliedRemark finds the Applied remark of an optimization pass naming
// the unit, preferring map promotion (the pass that deletes interior
// transfers and so directly turns cyclic patterns acyclic), then the
// overlap pass for hidden-byte changes.
func appliedRemark(rs []remarks.Remark, name string, line int) *remarks.Remark {
	var found *remarks.Remark
	for i := range rs {
		r := &rs[i]
		if r.Kind != remarks.Applied || !remarks.MatchesUnit(r.Unit, name, line) {
			continue
		}
		switch r.Pass {
		case "mappromo":
			return r
		case "allocapromo", "gluekernel", "overlap":
			if found == nil {
				found = r
			}
		}
	}
	return found
}

// missedRemark finds the remark explaining why the unit stayed cyclic:
// the Missed remark of the blocking pass (map promotion preferred), or
// failing that the Runtime remark the ledger emitted for the unit,
// which cross-references the compile-time blocking reason.
func missedRemark(rs []remarks.Remark, name string, line int) *remarks.Remark {
	var found, runtimeR *remarks.Remark
	for i := range rs {
		r := &rs[i]
		if !remarks.MatchesUnit(r.Unit, name, line) {
			continue
		}
		switch r.Kind {
		case remarks.Missed:
			if r.Pass == "mappromo" {
				return r
			}
			if found == nil {
				found = r
			}
		case remarks.Runtime:
			if runtimeR == nil {
				runtimeR = r
			}
		}
	}
	if found == nil {
		return runtimeR
	}
	return found
}

// overlapRemark finds an overlap-pass remark naming the unit.
func overlapRemark(rs []remarks.Remark, name string, line int) *remarks.Remark {
	for i := range rs {
		r := &rs[i]
		if r.Pass == "overlap" && remarks.MatchesUnit(r.Unit, name, line) {
			return r
		}
	}
	return nil
}

// DiffLedgers matches allocation units across two records and returns
// the units whose communication changed, in record-B ledger order with
// A-only units appended. The per-unit byte deltas sum exactly to the
// records' total comm-byte delta: ledger byte columns and Stats byte
// totals count the same transfers.
func DiffLedgers(a, b *Record) []UnitDelta {
	type side struct {
		pattern                  trace.Pattern
		copies, bytes, trips, ov int64
	}
	sideOf := func(u *trace.UnitStats) side {
		return side{
			pattern: u.Pattern,
			copies:  u.HtoDCopies + u.DtoHCopies,
			bytes:   u.BytesHtoD + u.BytesDtoH,
			trips:   u.RoundTrips,
			ov:      u.OverlappedBytes,
		}
	}
	aSide := make(map[trace.UnitKey]side)
	aKeys := a.Comm.Keys()
	for i, k := range aKeys {
		aSide[k] = sideOf(&a.Comm.Units[i])
	}
	var out []UnitDelta
	seen := make(map[trace.UnitKey]bool)
	for i, k := range b.Comm.Keys() {
		seen[k] = true
		sb := sideOf(&b.Comm.Units[i])
		sa := aSide[k] // zero value (PatternNone) when absent
		d := UnitDelta{
			Unit:     k.String(),
			PatternA: sa.pattern, PatternB: sb.pattern,
			CopiesA: sa.copies, CopiesB: sb.copies,
			BytesA: sa.bytes, BytesB: sb.bytes,
			TripsA: sa.trips, TripsB: sb.trips,
			OverlapA: sa.ov, OverlapB: sb.ov,
		}
		if !d.changed() {
			continue
		}
		switch {
		case sa.pattern == trace.PatternCyclic && sb.pattern != trace.PatternCyclic:
			d.Explain = appliedRemark(b.Remarks, k.Name, k.Line)
		case sb.pattern == trace.PatternCyclic:
			d.Explain = missedRemark(b.Remarks, k.Name, k.Line)
		case sb.ov != sa.ov:
			d.Explain = overlapRemark(b.Remarks, k.Name, k.Line)
			if d.Explain == nil {
				d.Explain = appliedRemark(b.Remarks, k.Name, k.Line)
			}
		default:
			d.Explain = appliedRemark(b.Remarks, k.Name, k.Line)
		}
		out = append(out, d)
	}
	// Units present only in record A.
	for i, k := range aKeys {
		if seen[k] {
			continue
		}
		sa := sideOf(&a.Comm.Units[i])
		d := UnitDelta{
			Unit:     k.String(),
			PatternA: sa.pattern, PatternB: trace.PatternNone,
			CopiesA: sa.copies, BytesA: sa.bytes, TripsA: sa.trips, OverlapA: sa.ov,
		}
		if !d.changed() {
			continue
		}
		d.Explain = appliedRemark(b.Remarks, k.Name, k.Line)
		out = append(out, d)
	}
	return out
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

// PatternBadge renders a ledger pattern as short display text.
func PatternBadge(p trace.Pattern) string {
	s := p.String()
	if s == "" {
		return "none"
	}
	return strings.ToLower(s)
}
