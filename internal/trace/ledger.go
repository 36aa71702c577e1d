// Communication ledger: a per-allocation-unit fold of the runtime
// library's transfer activity.
//
// The paper's core claim (§5, Figure 2) is about communication *shape*:
// unoptimized CGCM re-uploads and copies back every mapped allocation
// unit around every kernel launch (a cyclic pattern whose round trips
// serialize the CPU and GPU), while the communication optimizations hoist
// the transfers out of loops (an acyclic pattern that overlaps CPU and
// GPU work). Aggregate transfer counters cannot show *which* unit
// ping-pongs; the ledger can, because every map/unmap/release event names
// its unit and the fold classifies each unit's pattern.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Pattern classifies one allocation unit's transfer shape.
type Pattern int

// Patterns.
const (
	// PatternNone: the unit never transferred.
	PatternNone Pattern = iota
	// PatternAcyclic: the unit crossed the bus in at most one burst each
	// way (e.g. one upload before the kernels, one copy-back after).
	PatternAcyclic
	// PatternCyclic: the unit made round trips — it was re-uploaded after
	// a copy-back, or transferred across three or more distinct kernel
	// epochs — the shape that serializes CPU and GPU (Figure 2a).
	PatternCyclic
)

func (p Pattern) String() string {
	switch p {
	case PatternAcyclic:
		return "acyclic"
	case PatternCyclic:
		return "cyclic"
	}
	return "none"
}

// UnitStats summarizes one allocation unit's communication over a run.
type UnitStats struct {
	Name string // diagnostic name ("malloc", global name, "alloca f")
	Base uint64 // CPU base address (unique per unit within a run)
	Size int64
	// Line is the source line of the unit's allocation site (0 when
	// unknown, e.g. globals); it lets runtime diagnostics cross-reference
	// compile-time remarks about the same unit.
	Line int

	Maps, Unmaps, Releases int64 // runtime-library calls naming this unit

	HtoDCopies, DtoHCopies int64 // transfers actually performed
	BytesHtoD, BytesDtoH   int64

	// OverlappedBytes counts transferred bytes whose DMA time ran
	// concurrently with CPU or GPU work (async streams); 0 on synchronous
	// runs. It is the only ledger field that differs between a run with
	// overlap on and the same run with overlap off.
	OverlappedBytes int64

	// ResidencySkips counts maps that copied nothing because the unit was
	// already resident; EpochSkips counts unmaps that copied nothing
	// because the unit's epoch was current — the redundant communication
	// CGCM's reference counts and epochs eliminate.
	ResidencySkips, EpochSkips int64

	// RoundTrips counts re-uploads: HtoD copies performed after the unit
	// had already been copied back at least once.
	RoundTrips int64

	// TransferEpochs is the number of distinct kernel epochs in which the
	// unit crossed the bus in either direction.
	TransferEpochs int

	// Evictions counts device-memory evictions of this unit under memory
	// pressure (the device copy was dropped, possibly after a dirty
	// flush; the next map re-allocates and re-uploads).
	Evictions int64

	FirstEpoch, LastEpoch uint64 // epochs of first and last copy

	Pattern Pattern
}

// Ledger is the per-run communication summary: one row per allocation
// unit the runtime library ever touched, in base-address order.
type Ledger struct {
	Units []UnitStats
}

// Cyclic counts units classified cyclic.
func (l Ledger) Cyclic() int { return l.countPattern(PatternCyclic) }

// Acyclic counts units classified acyclic.
func (l Ledger) Acyclic() int { return l.countPattern(PatternAcyclic) }

func (l Ledger) countPattern(p Pattern) int {
	n := 0
	for i := range l.Units {
		if l.Units[i].Pattern == p {
			n++
		}
	}
	return n
}

// RoundTrips sums re-uploads across all units.
func (l Ledger) RoundTrips() int64 {
	var n int64
	for i := range l.Units {
		n += l.Units[i].RoundTrips
	}
	return n
}

// SkippedCopies sums the transfers avoided by residency reference counts
// and the epoch check.
func (l Ledger) SkippedCopies() int64 {
	var n int64
	for i := range l.Units {
		n += l.Units[i].ResidencySkips + l.Units[i].EpochSkips
	}
	return n
}

// Unit returns the first unit with the given name, or nil.
func (l Ledger) Unit(name string) *UnitStats {
	for i := range l.Units {
		if l.Units[i].Name == name {
			return &l.Units[i]
		}
	}
	return nil
}

// UnitKey identifies one allocation unit across two runs of the same
// program. Base addresses differ between runs, but the allocation site
// (diagnostic name + source line) plus the occurrence index among units
// sharing that site is stable, because the simulated machine allocates
// deterministically and the ledger lists units in base-address order.
type UnitKey struct {
	Name string
	Line int // allocation-site source line (0: unknown)
	N    int // occurrence index among same-site units
}

// String renders the key as a remark-style unit label, name[:line][#n]:
// the one place a unit's label is spelled.
func (k UnitKey) String() string {
	s := k.Name
	if k.Line > 0 {
		s = fmt.Sprintf("%s:%d", s, k.Line)
	}
	if k.N > 0 {
		s = fmt.Sprintf("%s#%d", s, k.N)
	}
	return s
}

// Label renders the unit as a remark-style label, name[:line]; the line
// lets the label cross-reference compile-time remarks about the unit.
func (u *UnitStats) Label() string { return UnitKey{Name: u.Name, Line: u.Line}.String() }

// keys assigns every unit its cross-run key, in ledger order.
func (l Ledger) keys() []UnitKey {
	occ := make(map[UnitKey]int)
	keys := make([]UnitKey, len(l.Units))
	for i := range l.Units {
		site := UnitKey{Name: l.Units[i].Name, Line: l.Units[i].Line}
		keys[i] = site
		keys[i].N = occ[site]
		occ[site]++
	}
	return keys
}

// UnitPair is one allocation unit as two ledgers of the same program
// record it; A or B is nil when that ledger has no such unit.
type UnitPair struct {
	UnitKey
	A, B *UnitStats
}

// JoinUnits pairs the units of a and b by UnitKey: b's units in ledger
// order, then the units only a has, in a's order.
func JoinUnits(a, b Ledger) []UnitPair {
	aKeys := a.keys()
	inA := make(map[UnitKey]*UnitStats, len(aKeys))
	for i, k := range aKeys {
		inA[k] = &a.Units[i]
	}
	pairs := make([]UnitPair, 0, len(b.Units))
	for i, k := range b.keys() {
		pairs = append(pairs, UnitPair{UnitKey: k, A: inA[k], B: &b.Units[i]})
		delete(inA, k)
	}
	for i, k := range aKeys {
		if inA[k] != nil {
			pairs = append(pairs, UnitPair{UnitKey: k, A: &a.Units[i]})
		}
	}
	return pairs
}

// OverlappedBytes sums overlapped transfer bytes across all units.
func (l Ledger) OverlappedBytes() int64 {
	var n int64
	for i := range l.Units {
		n += l.Units[i].OverlappedBytes
	}
	return n
}

// Render prints the ledger as an aligned table.
func (l Ledger) Render(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %6s %6s %10s %10s %7s %6s %6s %7s  %s\n",
		"allocation unit", "size", "maps", "unmaps", "HtoD", "DtoH", "overlap", "skips", "trips", "epochs", "pattern")
	fmt.Fprintln(w, strings.Repeat("-", 118))
	for i := range l.Units {
		u := &l.Units[i]
		fmt.Fprintf(w, "%-24s %8d %6d %6d %4d/%-5s %4d/%-5s %7s %6d %6d %7d  %s\n",
			fmt.Sprintf("%s@%#x", u.Name, u.Base), u.Size, u.Maps, u.Unmaps,
			u.HtoDCopies, fmtBytes(u.BytesHtoD), u.DtoHCopies, fmtBytes(u.BytesDtoH),
			fmtBytes(u.OverlappedBytes),
			u.ResidencySkips+u.EpochSkips, u.RoundTrips, u.TransferEpochs, u.Pattern)
	}
}

// String renders the ledger table.
func (l Ledger) String() string {
	var sb strings.Builder
	l.Render(&sb)
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// LedgerBuilder folds runtime-library events into a Ledger. The runtime
// calls it from the single root execution context, so it needs no locking;
// each run starts from an empty builder (NewLedgerBuilder, or Reset).
type LedgerBuilder struct {
	units map[uint64]int // base -> index in rows
	rows  []UnitStats    // in first-event order
}

// NewLedgerBuilder returns an empty builder.
func NewLedgerBuilder() *LedgerBuilder {
	return &LedgerBuilder{units: make(map[uint64]int)}
}

// Reset empties the builder, keeping its memory.
func (b *LedgerBuilder) Reset() {
	clear(b.units)
	b.rows = b.rows[:0]
}

// Fold books one runtime-library event against the unit it names: a map,
// unmap or release call (Copied tells a transfer from a residency or epoch
// skip), the shadow-array upload of mapArray (always Copied), or an
// eviction. line is the unit's allocation site, which the runtime keeps
// on its own record of the unit; the unit's first event stamps it on the
// row (host addresses are never reused, so a base names one unit). An
// event that names no unit — a call absorbed after degradation, a failed
// call, a retry — is not the ledger's business.
//
// Events arrive in non-decreasing epoch order, so a copy opens a new
// transfer epoch exactly when it is the unit's first or its epoch
// differs from the last copy's.
func (b *LedgerBuilder) Fold(ev *Event, line int) {
	if b == nil || ev.Base == 0 {
		return
	}
	i, ok := b.units[ev.Base]
	if !ok {
		i = len(b.rows)
		b.units[ev.Base] = i
		b.rows = append(b.rows, UnitStats{Name: ev.Unit, Base: ev.Base, Size: ev.Size, Line: line})
	}
	u := &b.rows[i]
	switch ev.Kind {
	case EvMap:
		u.Maps++
		if !ev.Copied {
			u.ResidencySkips++
		}
	case EvUnmap:
		u.Unmaps++
		if !ev.Copied {
			u.EpochSkips++
		}
	case EvRelease:
		u.Releases++
	case EvEvict:
		u.Evictions++
	}
	if !ev.Copied {
		return
	}
	if first := u.HtoDCopies+u.DtoHCopies == 0; first || ev.Epoch != u.LastEpoch {
		u.TransferEpochs++
		if first {
			u.FirstEpoch = ev.Epoch
		}
	}
	u.LastEpoch = ev.Epoch
	if ev.Kind != EvUnmap {
		if u.DtoHCopies > 0 {
			u.RoundTrips++
		}
		u.HtoDCopies++
		u.BytesHtoD += ev.Size
	} else {
		u.DtoHCopies++
		u.BytesDtoH += ev.Size
	}
}

// RecordOverlap credits n transferred bytes of the unit at base as
// overlapped with concurrent CPU/GPU work. It is the machine's overlap
// sink (Runtime.EnableAsync installs it): the machine calls it when a
// stream copy retires, so the credit lands on the unit whose host range
// the copy moved. A copy for an unknown base (e.g. a manual cuda_memcpy
// outside any tracked unit) is dropped rather than inventing a row.
func (b *LedgerBuilder) RecordOverlap(base uint64, n int64) {
	if b == nil || n <= 0 {
		return
	}
	if i, ok := b.units[base]; ok {
		b.rows[i].OverlappedBytes += n
	}
}

// Ledger folds the accumulated activity, classifying each unit:
//
//   - none: no copies either direction;
//   - cyclic: at least one round trip (an HtoD re-upload after a DtoH),
//     or copies spread over three or more distinct kernel epochs;
//   - acyclic: everything else (at most one burst each way).
func (b *LedgerBuilder) Ledger() Ledger {
	if b == nil {
		return Ledger{}
	}
	var l Ledger
	if len(b.rows) > 0 {
		l.Units = make([]UnitStats, 0, len(b.rows))
	}
	for _, s := range b.rows {
		switch {
		case s.HtoDCopies+s.DtoHCopies == 0:
			s.Pattern = PatternNone
		case s.RoundTrips > 0 || s.TransferEpochs >= 3:
			s.Pattern = PatternCyclic
		default:
			s.Pattern = PatternAcyclic
		}
		l.Units = append(l.Units, s)
	}
	slices.SortStableFunc(l.Units, func(a, b UnitStats) int { return cmp.Compare(a.Base, b.Base) })
	return l
}
