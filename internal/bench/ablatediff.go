// Ablation diff: run one program under two ablation sets and explain, at
// allocation-unit granularity, what the ablated passes bought. The ledger
// says *which* units changed pattern (cyclic under the larger ablation,
// acyclic under the smaller); the optimization remarks from the two
// compiles say *why* — which pass promoted each recovered unit, and which
// compile-time reason blocks the units that stay cyclic either way.
package bench

import (
	"fmt"
	"io"
	"strings"

	"cgcm/internal/core"
	"cgcm/internal/remarks"
	"cgcm/internal/trace"
)

// UnitDiff is one allocation unit's communication pattern under the two
// ablation sets, with the remark that explains the difference.
type UnitDiff struct {
	trace.UnitKey
	// Base / Ablated are the unit's patterns under the base and ablated
	// pass sets (PatternNone when the unit never transferred in that run).
	Base, Ablated trace.Pattern
	// TripsBase / TripsAblated are the unit's round-trip counts.
	TripsBase, TripsAblated int64
	// Explain is the remark accounting for the difference: for a promoted
	// unit, the Applied remark of the optimization that fixed it (from the
	// base compile); for a still-cyclic unit, the Missed remark naming the
	// blocking reason. Nil when no remark names the unit.
	Explain *remarks.Remark
}

// AblationDiff is the outcome of comparing one program under two
// ablation sets.
type AblationDiff struct {
	Program string
	// BaseSet / AblatedSet render the two ablation sets ("" = none).
	BaseSet, AblatedSet string

	// Promoted lists units cyclic under the ablated set but not under the
	// base set: the communication patterns the ablated passes repair.
	Promoted []UnitDiff
	// Regressed lists units cyclic under the base set but not the ablated
	// one (unexpected; present for completeness).
	Regressed []UnitDiff
	// StillCyclic lists units cyclic under both sets — patterns no
	// enabled optimization removes, annotated with the blocking reason.
	StillCyclic []UnitDiff

	// BaseRemarks / AblatedRemarks are the full remark streams of the two
	// runs (compile + runtime), canonically sorted.
	BaseRemarks, AblatedRemarks []remarks.Remark
}

// appliedRemark finds the Applied remark of an optimization pass naming
// the unit, preferring map promotion (the pass that deletes interior
// transfers and so directly turns cyclic patterns acyclic).
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
		case "allocapromo", "gluekernel":
			if found == nil {
				found = r
			}
		}
	}
	return found
}

// missedRemark finds the Missed remark naming the unit, preferring map
// promotion.
func missedRemark(rs []remarks.Remark, name string, line int) *remarks.Remark {
	var found *remarks.Remark
	for i := range rs {
		r := &rs[i]
		if r.Kind != remarks.Missed || !remarks.MatchesUnit(r.Unit, name, line) {
			continue
		}
		if r.Pass == "mappromo" {
			return r
		}
		if found == nil {
			found = r
		}
	}
	return found
}

// DiffAblation runs the program under optimized CGCM twice — ablating
// base, then ablated — with remarks enabled, matches allocation units
// across the two ledgers, and explains every pattern change.
func DiffAblation(p Program, base, ablated core.PassSet) (*AblationDiff, error) {
	run := func(set core.PassSet) (*core.Report, error) {
		rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
			Strategy: core.CGCMOptimized,
			Ablate:   set,
			Workers:  Workers,
			Remarks:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s [ablate %s]: %w", p.Name, setLabel(set), err)
		}
		return rep, nil
	}
	baseRep, err := run(base)
	if err != nil {
		return nil, err
	}
	ablRep, err := run(ablated)
	if err != nil {
		return nil, err
	}

	d := &AblationDiff{
		Program:        p.Name,
		BaseSet:        setLabel(base),
		AblatedSet:     setLabel(ablated),
		BaseRemarks:    baseRep.Remarks,
		AblatedRemarks: ablRep.Remarks,
	}

	type side struct {
		pattern trace.Pattern
		trips   int64
	}
	basePat := make(map[trace.UnitKey]side)
	for i, k := range baseRep.Comm.Keys() {
		u := &baseRep.Comm.Units[i]
		basePat[k] = side{u.Pattern, u.RoundTrips}
	}
	seen := make(map[trace.UnitKey]bool)
	for i, k := range ablRep.Comm.Keys() {
		u := &ablRep.Comm.Units[i]
		seen[k] = true
		b := basePat[k] // zero value (PatternNone) when absent
		ud := UnitDiff{
			UnitKey: k, Base: b.pattern, Ablated: u.Pattern,
			TripsBase: b.trips, TripsAblated: u.RoundTrips,
		}
		switch {
		case u.Pattern == trace.PatternCyclic && b.pattern != trace.PatternCyclic:
			ud.Explain = appliedRemark(baseRep.Remarks, k.Name, k.Line)
			d.Promoted = append(d.Promoted, ud)
		case u.Pattern == trace.PatternCyclic && b.pattern == trace.PatternCyclic:
			ud.Explain = missedRemark(baseRep.Remarks, k.Name, k.Line)
			d.StillCyclic = append(d.StillCyclic, ud)
		case u.Pattern != trace.PatternCyclic && b.pattern == trace.PatternCyclic:
			d.Regressed = append(d.Regressed, ud)
		}
	}
	// Units cyclic under base that vanished from the ablated ledger.
	for i, k := range baseRep.Comm.Keys() {
		if seen[k] || baseRep.Comm.Units[i].Pattern != trace.PatternCyclic {
			continue
		}
		u := &baseRep.Comm.Units[i]
		d.Regressed = append(d.Regressed, UnitDiff{
			UnitKey: k, Base: u.Pattern, Ablated: trace.PatternNone,
			TripsBase: u.RoundTrips,
		})
	}
	return d, nil
}

// setLabel renders an ablation set for display ("none" when empty).
func setLabel(s core.PassSet) string {
	if out := s.String(); out != "" {
		return out
	}
	return "none"
}

// RenderAblationDiff prints the diff as an explained table: which units
// the ablated passes promote (with the Applied remark that does it), and
// which stay cyclic regardless (with the blocking reason).
func RenderAblationDiff(w io.Writer, d *AblationDiff) {
	fmt.Fprintf(w, "Ablation diff: %s — ablate {%s} vs {%s}\n", d.Program, d.BaseSet, d.AblatedSet)
	fmt.Fprintln(w, strings.Repeat("-", 96))
	section := func(title string, uds []UnitDiff, why func(UnitDiff) string) {
		if len(uds) == 0 {
			return
		}
		fmt.Fprintf(w, "%s (%d unit(s)):\n", title, len(uds))
		for _, ud := range uds {
			fmt.Fprintf(w, "  %-20s %-8s -> %-8s trips %d -> %d\n",
				ud.UnitKey, ud.Base, ud.Ablated, ud.TripsBase, ud.TripsAblated)
			fmt.Fprintf(w, "      %s\n", why(ud))
		}
	}
	section("promoted by the ablated passes", d.Promoted, func(ud UnitDiff) string {
		if ud.Explain != nil {
			return fmt.Sprintf("fixed by %s: %s", ud.Explain.Pass, ud.Explain.Message)
		}
		return "no Applied remark names this unit (promotion is indirect, e.g. via another unit's hoist)"
	})
	section("cyclic under both sets", d.StillCyclic, func(ud UnitDiff) string {
		if ud.Explain != nil {
			return fmt.Sprintf("blocked: %s (%s)", ud.Explain.Reason, ud.Explain.Message)
		}
		return "no Missed remark names this unit (the pattern is inherent to the program)"
	})
	section("regressed (cyclic only under the base set)", d.Regressed, func(ud UnitDiff) string {
		return "unexpected: ablating passes removed a cyclic pattern"
	})
	if len(d.Promoted)+len(d.StillCyclic)+len(d.Regressed) == 0 {
		fmt.Fprintln(w, "no allocation unit changed pattern between the two sets")
	}
	fmt.Fprintln(w, strings.Repeat("-", 96))
	fmt.Fprintf(w, "totals: %d promoted, %d still cyclic, %d regressed\n",
		len(d.Promoted), len(d.StillCyclic), len(d.Regressed))
}
