// Package trace is the structured observability layer for the CGCM stack.
//
// It replaces the ad-hoc flat event slice with typed spans on named
// timelines, so every layer of the system reports what it did in one
// place:
//
//   - the compiler records a PhaseSpan per phase (parse, sema, irbuild,
//     constfold, doall, commmgmt, gluekernel, allocapromo, mappromo) with
//     host wall time and an activity count (loops parallelized, calls
//     promoted, ...);
//   - the simulated machine and the CGCM runtime library book what they
//     do as accounting events (event.go); Spans renders a run's event log
//     as spans — CPU compute, kernels, transfers and stalls on the simulated
//     CPU/GPU/transfer timelines, map/unmap/release calls as instants
//     tagged with the allocation unit they touched — and the
//     communication Ledger (ledger.go) folds the runtime's into a
//     per-unit summary that classifies each allocation unit's transfer
//     pattern as cyclic or acyclic — the distinction the paper's Figure 2
//     and §5 are about.
//
// Spans export to Chrome trace-event JSON (chrome.go) viewable in
// Perfetto or chrome://tracing. The export is one-way: analyses such as
// the critical path read a run's spans, not the file.
package trace

import (
	"fmt"
	"sync"
)

// Lane identifies a timeline in the trace display. Machine spans live on
// the simulated CPU/GPU/transfer lanes; runtime-library calls get their
// own lane so map/unmap chatter does not obscure the compute schedule.
type Lane int

// Lanes.
const (
	LaneCPU Lane = iota
	LaneGPU
	LaneXfer
	LaneRT

	// LaneStreamBase is the first stream lane: machine.NewStream assigns
	// lane LaneStreamBase+i to the i-th stream, so every stream's copies
	// render on their own timeline in the Perfetto export.
	LaneStreamBase
)

func (l Lane) String() string {
	switch l {
	case LaneCPU:
		return "CPU"
	case LaneGPU:
		return "GPU"
	case LaneXfer:
		return "Xfer"
	case LaneRT:
		return "CGCM runtime"
	}
	if l >= LaneStreamBase {
		return fmt.Sprintf("Stream %d", int(l-LaneStreamBase))
	}
	return "?"
}

// Kind classifies spans.
type Kind int

// Span kinds.
const (
	KindCPU      Kind = iota // CPU compute
	KindKernel               // GPU kernel execution
	KindHtoD                 // host-to-device transfer
	KindDtoH                 // device-to-host transfer
	KindStall                // CPU waiting on the GPU
	KindMap                  // runtime map / mapArray call
	KindUnmap                // runtime unmap / unmapArray call
	KindRelease              // runtime release / releaseArray call
	KindFault                // execution fault or injected device fault (instant)
	KindEvict                // runtime evicted a device-resident unit under memory pressure
	KindFallback             // kernel executed on the CPU after device degradation
	KindIssue                // async copy issued on a stream (instant, CPU lane)
)

func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindKernel:
		return "kernel"
	case KindHtoD:
		return "HtoD"
	case KindDtoH:
		return "DtoH"
	case KindStall:
		return "stall"
	case KindMap:
		return "map"
	case KindUnmap:
		return "unmap"
	case KindRelease:
		return "release"
	case KindFault:
		return "fault"
	case KindEvict:
		return "evict"
	case KindFallback:
		return "fallback"
	case KindIssue:
		return "issue"
	}
	return "?"
}

// Span is one interval (or instant, when Start == End) on a lane of the
// simulated timeline. Times are simulated seconds.
type Span struct {
	Kind       Kind
	Lane       Lane
	Name       string  // kernel name, allocation-unit name, or label
	Start, End float64 // simulated seconds
	Bytes      int64   // transfer payload, when applicable
	Unit       string  // allocation-unit name for transfers and runtime calls
	Epoch      uint64  // kernel epoch at emission time
	Line       int     // launch-site source line for kernel spans, 0 if unknown
	// Flow links an async copy's issue instant (KindIssue, CPU lane) to
	// its copy span on a stream lane; both carry the same nonzero id, and
	// the Chrome export renders them as a flow arrow. 0 = no flow.
	Flow uint64
}

// PhaseSpan records one compiler phase: its host wall time and how many
// things it transformed (meaning depends on the phase — loops
// parallelized, kernels outlined, calls promoted, ...).
type PhaseSpan struct {
	Name     string
	HostNS   int64 // host wall time, nanoseconds
	Activity int
	Note     string
}

// Tracer collects spans and phases. All methods are nil-safe so callers
// can thread a tracer unconditionally and pay nothing when tracing is
// off, and mutex-protected so concurrent runs may share a sink.
type Tracer struct {
	mu     sync.Mutex
	spans  []Span
	phases []PhaseSpan
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Emit appends spans as given, in one step, so the spans of one call never
// interleave with another's. The layers of a run do not call it: they book
// events, and a finished run emits what Spans renders from its log.
func (t *Tracer) Emit(spans ...Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// RecordPhases appends already-measured phase spans.
func (t *Tracer) RecordPhases(phases ...PhaseSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, phases...)
	t.mu.Unlock()
}

// Spans returns a copy of the collected spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Phases returns a copy of the collected phase spans.
func (t *Tracer) Phases() []PhaseSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseSpan, len(t.phases))
	copy(out, t.phases)
	return out
}

// Merge appends everything collected by other into t.
func (t *Tracer) Merge(other *Tracer) {
	if t == nil || other == nil || t == other {
		return
	}
	spans := other.Spans()
	phases := other.Phases()
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.phases = append(t.phases, phases...)
	t.mu.Unlock()
}
