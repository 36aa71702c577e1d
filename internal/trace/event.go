// The accounting event: the one record every tally of a run is folded from.
//
// The machine and the runtime library each book what they do as an Event,
// at one place per layer (the machine clock's emit, Runtime.emit), which
// applies the inline folds: machine.Stats, runtime.Stats, the ledger
// (LedgerBuilder.Fold) and the per-event histograms. A run that wants a
// view keeps one record in the machine: its verb list, and the runtime's
// and the interpreter's events (cgcm.* calls, per-line kernel ops) as
// notes at a verb position. The event log is that record's replay
// (machine.Log), and views are pure functions of it, read after the run:
// the timeline (Spans) and the profile (prof.FromLog). DESIGN.md
// ("Accounting: one event stream, its folds") has the catalogue of kinds
// and the fields each fold reads.
package trace

import "fmt"

// EventKind says what happened.
type EventKind int

// Event kinds. The machine books the first group, the runtime library the
// second, the interpreter the third.
const (
	EvCPU      EventKind = iota // a flushed run of CPU ops (Ops)
	EvInspect                   // inspector-executor address-stream walk (Ops)
	EvKernel                    // a kernel launch on the GPU (Label, Line, Ops, Dur)
	EvFallback                  // a kernel executed on the CPU after degradation (Label, Line, Ops, Dur)
	EvHtoD                      // a host-to-device copy (Lane, Bytes, Base, Unit, Dur, Rescue; on a stream: Label, Flow, Issued, Ops = copies in flight)
	EvDtoH                      // a device-to-host copy (as EvHtoD)
	EvStall                     // the CPU waited for the device (Dur)
	EvPenalty                   // retry backoff (Dur)
	EvFault                     // the fault plan failed a driver call (Label = verb, Ops = call index, Unit)
	EvOverlap                   // Bytes of a finished stream copy ran under other work (Base = host address)
	EvRunError                  // execution died (Label = the error); the interpreter notes it

	EvMap          // cgcm.map of a unit (Copied: uploaded, else a residency skip); no unit: absorbed after degradation, or failed
	EvUnmap        // cgcm.unmap (Copied: copied back, else an epoch skip)
	EvRelease      // cgcm.release
	EvMapArray     // cgcm.mapArray (its element maps are events of their own)
	EvUnmapArray   // cgcm.unmapArray
	EvReleaseArray // cgcm.releaseArray
	EvUpload       // mapArray uploaded the unit's shadow pointer array
	EvEvict        // a unit's device copy was dropped under memory pressure or at degradation
	EvRetry        // a transient device fault is being retried
	EvDegrade      // the device failed; the run continues in CPU fallback (Label = reason)

	EvCall    // a cgcm.* call returned (Label = the call, Line, Dur = simulated time inside it)
	EvLineOps // one launch's Ops on one kernel source line (Label = kernel, Line = launch site, KernelLine; Lane: LaneGPU, or LaneCPU for a fallback launch)
)

// Event is one accountable thing a run did. It is a plain fixed-size value:
// layers build it on the stack and hand it to their emit function, a note
// in the run's record (when one is kept) holds a copy and nothing else
// retains it, and every string in it already existed — names for the
// timeline are built by Spans, after the run.
type Event struct {
	Kind EventKind
	Lane Lane // copies: the transfer lane, or the stream's lane; line ops: where they ran

	Start, End float64 // simulated seconds; equal for an instant
	// Dur is the simulated time charged for the event — what CommTime,
	// GPUTime, StallTime and PenaltyTime sum. It is carried on its own
	// because End-Start is not bit-equal to it.
	Dur    float64
	Issued float64 // stream copies: the CPU clock when the copy was issued

	Bytes int64 // payload moved or credited
	Ops   int64 // scalar ops executed; see the kinds for its other uses

	// The allocation unit concerned: its CPU base address, size and name.
	// Machine copies know only the host address and the name.
	Base uint64
	Size int64
	Unit string

	Label      string // kernel, stream, fault verb, call, degrade reason or error text
	Line       int    // source line of the launch or of the cgcm.* call in progress
	KernelLine int    // line ops: the source line inside the kernel the Ops ran on
	Epoch      uint64 // kernel epoch when the event was booked
	Flow       uint64 // stream copies: links the issue instant to the copy

	Copied bool // map/unmap/upload: the call moved the unit's bytes
	Rescue bool // copies: taken over the slow reliable channel
}

// Spans renders a run's event log as its timeline, in log order. Events
// that are tallies only (overlap credit, retries, the array verbs, a map
// call that named no unit, call timings, line ops) leave no span. This is
// the only place span names are built.
func Spans(events []Event) []Span {
	out := make([]Span, 0, len(events))
	for i := range events {
		out = appendSpans(out, &events[i])
	}
	return out
}

// appendSpans appends the spans of one event: none, one, or — for a stream
// copy — its issue instant and then the copy.
func appendSpans(out []Span, ev *Event) []Span {
	s := Span{Lane: LaneCPU, Start: ev.Start, End: ev.End, Unit: ev.Unit, Epoch: ev.Epoch}
	call := false // a runtime-library call about a unit: an instant named after it
	switch ev.Kind {
	case EvCPU:
		s.Kind, s.Name = KindCPU, fmt.Sprintf("%d ops", ev.Ops)
	case EvInspect:
		s.Kind, s.Name = KindCPU, fmt.Sprintf("inspect %d", ev.Ops)
	case EvKernel:
		s.Kind, s.Lane, s.Name, s.Line = KindKernel, LaneGPU, ev.Label, ev.Line
	case EvFallback:
		s.Kind, s.Name, s.Line = KindFallback, ev.Label, ev.Line
	case EvHtoD, EvDtoH:
		s.Kind, s.Lane, s.Name, s.Bytes, s.Flow = KindHtoD, ev.Lane, ev.Label, ev.Bytes, ev.Flow
		if ev.Kind == EvDtoH {
			s.Kind = KindDtoH
		}
		if ev.Rescue {
			s.Name = "rescue"
		}
		if ev.Flow != 0 {
			issue := s
			issue.Kind, issue.Lane, issue.Name = KindIssue, LaneCPU, "issue "+s.Kind.String()+" "+ev.Label
			issue.Start, issue.End = ev.Issued, ev.Issued
			out = append(out, issue)
		}
	case EvStall:
		s.Kind, s.Name = KindStall, "sync"
	case EvPenalty:
		s.Kind, s.Name = KindStall, "retry backoff"
	case EvFault:
		s.Kind, s.Lane, s.Name = KindFault, LaneRT, fmt.Sprintf("%s fault #%d", ev.Label, ev.Ops)
	case EvDegrade:
		s.Kind, s.Lane, s.Name = KindFault, LaneRT, "device degraded: "+ev.Label
	case EvRunError:
		s.Kind, s.Name = KindFault, ev.Label
	case EvMap, EvUpload:
		s.Kind, call = KindMap, true
	case EvUnmap:
		s.Kind, call = KindUnmap, true
	case EvRelease:
		s.Kind, call = KindRelease, true
	case EvEvict:
		s.Kind, s.Bytes, call = KindEvict, ev.Size, true
	default:
		return out
	}
	if call {
		if ev.Base == 0 {
			return out
		}
		if ev.Copied {
			s.Bytes = ev.Size
		}
		s.Lane, s.Name = LaneRT, s.Kind.String()+" "+ev.Unit
	}
	return append(out, s)
}
