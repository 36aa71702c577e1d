// Package remarks is CGCM's optimization-remarks engine: structured,
// source-anchored diagnostics explaining every decision the compiler
// passes and the runtime made — what fired, what was rejected and why,
// and which allocation units stayed cyclic at run time.
//
// The design follows LLVM's optimization remarks: each pass emits typed
// remarks — Applied (a transformation fired), Missed (a candidate was
// rejected, with a machine-readable Reason), Analysis (a classification
// or decision input) — anchored to the mini-C source line stamped on the
// IR. The runtime layer adds Runtime remarks after execution: when the
// communication ledger observes a cyclic transfer pattern for an
// allocation unit no pass promoted, the remark names the unit's
// allocation site and cross-references the blocking reason recorded at
// compile time, closing the loop between "this is slow" and "this is
// why the optimizer could not fix it".
//
// Remarks render compiler-style (`file:line: remark[pass]: message`),
// export as JSON, and filter by pass, kind, and allocation unit.
package remarks

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a remark, mirroring LLVM's remark taxonomy plus a
// runtime kind for post-execution ledger findings.
type Kind int

// Kinds.
const (
	// Applied: an optimization or management step fired.
	Applied Kind = iota
	// Missed: a candidate was considered and rejected; Reason says why.
	Missed
	// Analysis: a classification or decision input worth surfacing
	// (type-inference depths, candidate counts, ...).
	Analysis
	// Runtime: an execution-time finding from the communication ledger
	// (a unit that stayed cyclic, cross-referenced to its compile-time
	// blocking reason).
	Runtime
)

func (k Kind) String() string {
	switch k {
	case Applied:
		return "applied"
	case Missed:
		return "missed"
	case Analysis:
		return "analysis"
	case Runtime:
		return "runtime"
	}
	return "?"
}

// ParseKind parses a Kind name as rendered by String.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Applied, Missed, Analysis, Runtime} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown remark kind %q (valid: applied, missed, analysis, runtime)", s)
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	got, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// Reason is the machine-readable cause attached to every Missed remark:
// the specific legality or profitability check that rejected the
// candidate. Runtime remarks echo the reason of the compile-time Missed
// remark they cross-reference.
type Reason int

// Reasons.
const (
	// ReasonNone: not a Missed remark (Applied/Analysis), or no single
	// identifiable cause.
	ReasonNone Reason = iota
	// ReasonAliasing: CPU code inside the region may read or write the
	// governed allocation units (mod/ref conflict), so hoisting the
	// transfers would break the CPU's view of the data.
	ReasonAliasing
	// ReasonEscaping: the pointer (or a value the region defines) cannot
	// be recomputed outside the region — it escapes the scope the
	// transformation needs to move it across.
	ReasonEscaping
	// ReasonLoopVariantBase: the pointer's base allocation unit (or a
	// loop bound) varies within the region, so no single hoisted call
	// covers all iterations.
	ReasonLoopVariantBase
	// ReasonCrossIterationDep: a loop-carried data dependence orders the
	// iterations.
	ReasonCrossIterationDep
	// ReasonMixedIndirection: the same pointer is mapped both as a
	// scalar unit and as a pointer array (map vs mapArray), so one
	// hoisted call cannot stand in for both.
	ReasonMixedIndirection
	// ReasonUnknownPointsTo: the points-to analysis has no information
	// for the pointer, so no allocation unit can be proven.
	ReasonUnknownPointsTo
	// ReasonRecursive: the function is (mutually) recursive; hoisting
	// into callers would unbalance the runtime calls.
	ReasonRecursive
	// ReasonKernelCaller: a call site lives in GPU code, which cannot
	// issue runtime-library calls.
	ReasonKernelCaller
	// ReasonNoCallers: the function has no call sites to hoist into.
	ReasonNoCallers
	// ReasonNotCounted: the loop is not a recognizable counted for-loop
	// (induction variable, constant step, invariant bound).
	ReasonNotCounted
	// ReasonLoopShape: the loop's control-flow shape is unsupported
	// (multiple exits, body-exit break/return).
	ReasonLoopShape
	// ReasonSideEffects: the loop body has side effects a kernel cannot
	// contain (calls, I/O, allocation).
	ReasonSideEffects
	// ReasonNotAffine: a memory access address is not affine in the
	// induction variable, so iteration independence cannot be proven.
	ReasonNotAffine
	// ReasonLiveOut: a register value defined inside the region is used
	// outside it, and the outlined code cannot return registers.
	ReasonLiveOut
	// ReasonRegionTooLarge: the glue region exceeds the outlining size
	// limit; big regions are presumed performance-relevant CPU code.
	ReasonRegionTooLarge
	// ReasonControlDependent: the region reads or writes the slots the
	// loop's own control depends on (induction variable, bounds).
	ReasonControlDependent
	// ReasonDeviceOOM: the finite device memory could not hold the unit;
	// the runtime evicted it (or another unit) under pressure.
	ReasonDeviceOOM
	// ReasonDeviceFailure: a device fault (injected or organic) could not
	// be retried away; the run degraded to CPU fallback.
	ReasonDeviceFailure
	// ReasonHostAccess: host code may read or write the allocation unit
	// between the flush and the next synchronization point, so the copy
	// cannot overlap host work.
	ReasonHostAccess
	// ReasonIndirectArray: the site manages a doubly-indirect pointer array
	// (mapArray/unmapArray), whose element translation must complete before
	// the shadow array uploads; it stays synchronous.
	ReasonIndirectArray
	// ReasonRoundLimit: map promotion stopped at its round limit while
	// still hoisting, so maps later rounds would have examined stay in
	// their loops.
	ReasonRoundLimit
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonAliasing:
		return "aliasing"
	case ReasonEscaping:
		return "escaping-pointer"
	case ReasonLoopVariantBase:
		return "loop-variant-base"
	case ReasonCrossIterationDep:
		return "cross-iteration-dependence"
	case ReasonMixedIndirection:
		return "mixed-indirection"
	case ReasonUnknownPointsTo:
		return "unknown-points-to"
	case ReasonRecursive:
		return "recursive"
	case ReasonKernelCaller:
		return "kernel-caller"
	case ReasonNoCallers:
		return "no-callers"
	case ReasonNotCounted:
		return "not-counted-loop"
	case ReasonLoopShape:
		return "loop-shape"
	case ReasonSideEffects:
		return "side-effects"
	case ReasonNotAffine:
		return "not-affine"
	case ReasonLiveOut:
		return "live-out"
	case ReasonRegionTooLarge:
		return "region-too-large"
	case ReasonControlDependent:
		return "control-dependent"
	case ReasonDeviceOOM:
		return "device-oom"
	case ReasonDeviceFailure:
		return "device-failure"
	case ReasonHostAccess:
		return "host-access"
	case ReasonIndirectArray:
		return "indirect-array"
	case ReasonRoundLimit:
		return "round-limit"
	}
	return "?"
}

// MarshalJSON renders the reason as its string name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (r *Reason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for v := ReasonNone; v <= ReasonRoundLimit; v++ {
		if v.String() == s {
			*r = v
			return nil
		}
	}
	return fmt.Errorf("unknown remark reason %q", s)
}

// Remark is one structured diagnostic.
type Remark struct {
	// Pass names the emitter: doall, commmgmt, gluekernel, allocapromo,
	// mappromo, or "runtime" for ledger findings.
	Pass string `json:"pass"`
	Kind Kind   `json:"kind"`
	// Reason is the machine-readable cause (Missed and Runtime remarks).
	Reason Reason `json:"reason,omitempty"`
	// File and Line anchor the remark to mini-C source. Line 0 means the
	// construct carries no source position.
	File string `json:"file"`
	Line int    `json:"line"`
	// Function is the enclosing CPU function, when known.
	Function string `json:"function,omitempty"`
	// Unit labels the allocation unit(s) involved, comma-separated.
	// Compile-time labels come from the points-to objects
	// ("heap@main:12", "global a", "alloca@f:7"); runtime labels from
	// the ledger ("malloc:12", "a").
	Unit string `json:"unit,omitempty"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// String renders the remark compiler-style:
//
//	file:line: remark[pass]: missed(aliasing): message [unit: heap@main:12]
func (r Remark) String() string {
	var sb strings.Builder
	line := "?"
	if r.Line > 0 {
		line = fmt.Sprintf("%d", r.Line)
	}
	fmt.Fprintf(&sb, "%s:%s: remark[%s]: %s", r.File, line, r.Pass, r.Kind)
	if r.Reason != ReasonNone {
		fmt.Fprintf(&sb, "(%s)", r.Reason)
	}
	sb.WriteString(": ")
	sb.WriteString(r.Message)
	if r.Unit != "" {
		fmt.Fprintf(&sb, " [unit: %s]", r.Unit)
	}
	return sb.String()
}

// key is the dedup identity: convergence-iterated passes re-examine the
// same candidates every round, and identical findings collapse to one.
func (r Remark) key() string {
	return fmt.Sprintf("%s|%d|%d|%d|%s|%s|%s", r.Pass, r.Kind, r.Reason, r.Line, r.Function, r.Unit, r.Message)
}

// Sort orders remarks canonically: by source line first (compiler-style
// output reads in source order), then pass, kind, unit, and message.
// The order is a pure function of the remark set, so identical compiles
// render byte-identically.
func Sort(rs []Remark) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Message < b.Message
	})
}

// Collector accumulates remarks. All methods are nil-safe, so passes
// thread a collector unconditionally and pay nothing when remarks are
// off; it is mutex-protected so concurrent runs may share one.
type Collector struct {
	mu   sync.Mutex
	file string
	seen map[string]bool
	rs   []Remark
}

// NewCollector returns an empty collector; file stamps every remark.
func NewCollector(file string) *Collector {
	return &Collector{file: file, seen: make(map[string]bool)}
}

// Emit records one remark, stamping the collector's file name and
// dropping exact duplicates (convergence-iterated passes re-derive the
// same finding every round).
func (c *Collector) Emit(r Remark) {
	if c == nil {
		return
	}
	r.File = c.file
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := r.key(); !c.seen[k] {
		c.seen[k] = true
		c.rs = append(c.rs, r)
	}
}

// Remarks returns a canonically sorted copy of the collected remarks.
func (c *Collector) Remarks() []Remark {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Remark, len(c.rs))
	copy(out, c.rs)
	c.mu.Unlock()
	Sort(out)
	return out
}

// Filter selects remarks for display. Zero-valued fields match
// everything.
type Filter struct {
	// Pass matches the emitting pass exactly ("" = all).
	Pass string
	// Kind matches the kind's string name exactly ("" = all).
	Kind string
	// Unit matches remarks whose unit label contains this substring.
	Unit string
	// MissedOnly keeps only Missed remarks (and Runtime remarks, which
	// report missed optimizations observed at execution time).
	MissedOnly bool
}

// Apply returns the remarks r admits, preserving order.
func (f Filter) Apply(rs []Remark) []Remark {
	var out []Remark
	for _, r := range rs {
		if f.Pass != "" && r.Pass != f.Pass {
			continue
		}
		if f.Kind != "" && r.Kind.String() != f.Kind {
			continue
		}
		if f.Unit != "" && !strings.Contains(r.Unit, f.Unit) {
			continue
		}
		if f.MissedOnly && r.Kind != Missed && r.Kind != Runtime {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Write renders remarks one per line in compiler style.
func Write(w io.Writer, rs []Remark) error {
	for _, r := range rs {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonDoc is the JSON export envelope.
type jsonDoc struct {
	Remarks []Remark `json:"remarks"`
}

// WriteJSON exports remarks as an indented JSON document
// {"remarks": [...]}.
func WriteJSON(w io.Writer, rs []Remark) error {
	if rs == nil {
		rs = []Remark{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jsonDoc{Remarks: rs})
}

// ReadJSON parses a document written by WriteJSON.
func ReadJSON(rd io.Reader) ([]Remark, error) {
	var doc jsonDoc
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Remarks, nil
}

// MatchesUnit reports whether a remark's unit label names the ledger
// unit (name, allocLine). Compile-time labels embed the allocation-site
// line ("heap@main:12", "alloca@f:7"), so a unit allocated on line L
// matches any label part ending in ":L"; globals match by name
// ("global a" vs ledger name "a"). Labels may be comma-separated lists.
func MatchesUnit(label, name string, allocLine int) bool {
	for _, part := range strings.Split(label, ", ") {
		if allocLine > 0 && strings.HasSuffix(part, fmt.Sprintf(":%d", allocLine)) {
			return true
		}
		if part == "global "+name {
			return true
		}
	}
	return false
}

// The passes whose remarks explain a ledger unit's pattern. Promoters'
// Applied remarks explain a unit that stopped being cyclic, and
// Blockers' Missed remarks one that stayed cyclic; map promotion comes
// first in both, because its hoists are what delete a unit's interior
// transfers. Overlap remarks say when copies run, not whether they do,
// so neither list has that pass.
var (
	Promoters = []string{"mappromo", "allocapromo", "gluekernel"}
	Blockers  = []string{"mappromo", "doall", "gluekernel", "allocapromo"}
)

// Explain returns the remark that explains the ledger unit (name,
// allocLine): among the remarks of kind k that name the unit
// (MatchesUnit) and come from one of passes, the first from passes[0],
// else the first from any of them. Nil when none does. It is the one
// place a unit is tied to its explanation; callers differ only in the
// kind and the passes they admit.
func Explain(rs []Remark, k Kind, name string, allocLine int, passes ...string) *Remark {
	var found *Remark
	for i := range rs {
		r := &rs[i]
		if r.Kind != k || !MatchesUnit(r.Unit, name, allocLine) {
			continue
		}
		for j, p := range passes {
			if r.Pass != p {
				continue
			}
			if j == 0 {
				return r
			}
			if found == nil {
				found = r
			}
		}
	}
	return found
}
