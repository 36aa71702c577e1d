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

// DiffAblation runs the program under optimized CGCM twice — ablating
// base, then ablated — with remarks enabled (and overlap when Async is
// set), matches allocation units across the two ledgers, and explains
// every pattern change.
func DiffAblation(p Program, base, ablated core.PassSet) (*AblationDiff, error) {
	run := func(set core.PassSet) (*core.Report, error) {
		rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
			Strategy: core.CGCMOptimized,
			Ablate:   set,
			Async:    Async,
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

	// A unit missing from one ledger keeps that side's zero values
	// (PatternNone, no trips).
	for _, p := range trace.JoinUnits(baseRep.Comm, ablRep.Comm) {
		ud := UnitDiff{UnitKey: p.UnitKey}
		if p.A != nil {
			ud.Base, ud.TripsBase = p.A.Pattern, p.A.RoundTrips
		}
		if p.B != nil {
			ud.Ablated, ud.TripsAblated = p.B.Pattern, p.B.RoundTrips
		}
		baseCyclic, ablCyclic := ud.Base == trace.PatternCyclic, ud.Ablated == trace.PatternCyclic
		switch {
		case ablCyclic && !baseCyclic:
			ud.Explain = remarks.Explain(baseRep.Remarks, remarks.Applied, ud.Name, ud.Line, remarks.Promoters...)
			d.Promoted = append(d.Promoted, ud)
		case ablCyclic:
			ud.Explain = remarks.Explain(baseRep.Remarks, remarks.Missed, ud.Name, ud.Line, remarks.Blockers...)
			d.StillCyclic = append(d.StillCyclic, ud)
		case baseCyclic:
			d.Regressed = append(d.Regressed, ud)
		}
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
