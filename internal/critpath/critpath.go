// Package critpath is the performance-introspection layer over the
// simulated clock: it reconstructs the dependency structure of one run
// from its trace spans and answers "which operations bound execution".
//
// The simulated machine's timeline discipline makes an exact analysis
// possible. Every temporal verb assigns copied float64 values — a kernel
// starts at max(cpuTime, gpuReady, waits), a stall ends at exactly the
// gpuReady or copy-completion value it waited for, a transfer's end
// becomes the next CPU time — so a span's end coincides bit-for-bit with
// the start of whatever it enabled. The critical path therefore falls
// out of a backward sweep: start at Stats.Wall, repeatedly pick the span
// that ends exactly at the cursor, credit it, and jump to its start.
// The resulting segments tile [0, Wall] contiguously (each segment's
// start equals the previous segment's end, exactly), which is the
// invariant TestLiveInvariant asserts across the bench suite.
//
// CPU time the machine advances without emitting a span — kernel enqueue
// cost, cuMemAlloc charges — appears as synthetic "overhead" segments so
// the tiling never has holes.
//
// whatif.go predicts a run's wall under counterfactuals (free transfers,
// a 2x GPU, perfect overlap) by retiming the run's machine verbs with the
// machine's own clock, and diff.go attributes the wall delta between two
// runs to span classes.
package critpath

import (
	"fmt"
	"sort"
	"strings"

	"cgcm/internal/trace"
)

// Class groups path segments by what resource they occupy, the
// granularity of the limiting-factor classification.
type Class int

// Classes, in render order.
const (
	ClassGPU      Class = iota // kernel execution
	ClassComm                  // transfers: synchronous, stream copies, rescues
	ClassCPU                   // CPU compute, inspector walks, fallback kernels
	ClassOverhead              // launch enqueue, allocation, faults, retry backoff
	ClassStall                 // CPU waiting with no other span explaining the time
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassGPU:
		return "GPU"
	case ClassComm:
		return "Comm."
	case ClassCPU:
		return "CPU"
	case ClassOverhead:
		return "Overhead"
	case ClassStall:
		return "Stall"
	}
	return "?"
}

// opKind is the selection role of one operation.
type opKind int

const (
	opCPU     opKind = iota // CPU compute / inspector / fallback (advances the CPU clock)
	opKernel                // kernel on the GPU timeline
	opXfer                  // synchronous transfer (advances the CPU clock, resyncs the GPU)
	opCopy                  // asynchronous stream copy (occupies its stream only)
	opStall                 // CPU waiting on the GPU or a stream copy
	opBackoff               // fault-model overhead: failed driver call, retry backoff
	opGap                   // synthetic untraced CPU-clock advancement
)

// op is one operation of the reconstructed graph.
type op struct {
	kind       opKind
	span       int // index into the source span slice; -1 for synthetic gaps
	start, end float64
	lane       trace.Lane
}

func (o *op) dur() float64 { return o.end - o.start }

// Segment is one interval of the critical path. Segments are reported in
// time order and tile [0, Wall]: Start of each equals End of the
// previous, the first starts at 0, the last ends at Wall.
type Segment struct {
	Start, End float64
	Class      Class
	Kind       string // span kind, or "overhead" for synthetic segments
	Name       string // span name, when any
	Lane       trace.Lane
	SpanIndex  int // index into the analyzed span slice; -1 for synthetic
}

// LaneStat is one lane's busy accounting.
type LaneStat struct {
	Lane  trace.Lane
	Busy  float64 // total span time on the lane (stalls excluded)
	Stall float64 // stall time (CPU lane only)
	OnCP  float64 // portion of Busy on the critical path
}

// QueueStat aggregates issue-to-start queueing delay for one stream.
type QueueStat struct {
	Lane     trace.Lane
	Copies   int
	Total    float64 // sum of (copy start - issue time)
	Max      float64
	CopyTime float64 // total DMA occupancy on the stream
}

// OverlapStat quantifies how much communication time was hidden behind
// other work, span-derived (independent of the ledger's byte crediting).
type OverlapStat struct {
	CommTime   float64 `json:"comm_time"`  // all transfer time: sync + async + rescue
	AsyncTime  float64 `json:"async_time"` // stream-copy portion
	Hidden     float64 `json:"hidden"`     // copy time overlapped with CPU compute or kernels
	OnPath     float64 `json:"on_path"`    // transfer time on the critical path
	Efficiency float64 `json:"efficiency"` // Hidden / CommTime (0 when CommTime is 0)
}

// Analysis is the full result of analyzing one run's spans.
type Analysis struct {
	Wall     float64
	Path     []Segment
	ByClass  [numClasses]float64 // on-path time per class
	Limiting string              // "GPU" | "Comm." | "Other" (Table 3 vocabulary)
	Lanes    []LaneStat
	Queues   []QueueStat
	Overlap  OverlapStat

	spans []trace.Span
	ops   []op
}

// Validate checks the tiling invariant: contiguous segments from 0 to
// Wall with exact boundary equality.
func (a *Analysis) Validate() error {
	if len(a.Path) == 0 {
		if a.Wall == 0 {
			return nil
		}
		return fmt.Errorf("critpath: empty path for wall %g", a.Wall)
	}
	if a.Path[0].Start != 0 {
		return fmt.Errorf("critpath: path starts at %g, not 0", a.Path[0].Start)
	}
	last := a.Path[len(a.Path)-1].End
	if last != a.Wall {
		return fmt.Errorf("critpath: path ends at %g, wall is %g", last, a.Wall)
	}
	for i := 1; i < len(a.Path); i++ {
		if a.Path[i].Start != a.Path[i-1].End {
			return fmt.Errorf("critpath: gap between segment %d (ends %g) and %d (starts %g)",
				i-1, a.Path[i-1].End, i, a.Path[i].Start)
		}
	}
	return nil
}

// classOf maps an op to its accounting class.
func classOf(o *op) Class {
	switch o.kind {
	case opKernel:
		return ClassGPU
	case opXfer, opCopy:
		return ClassComm
	case opCPU:
		return ClassCPU
	case opBackoff, opGap:
		return ClassOverhead
	}
	return ClassStall
}

// snapTol is the relative boundary-clustering tolerance. Live traces
// carry exact values and cluster trivially; traces re-read from Chrome
// JSON can be perturbed by an ulp or two per microsecond conversion,
// which this collapses. Distinct real events are separated by at least
// one cost-model quantum (~0.5ns), many orders of magnitude above it.
const snapTol = 1e-10

// snapTimes canonicalizes span boundaries: values within snapTol*scale
// of each other collapse to one representative, so exact-equality
// matching works on file-loaded traces too. The wall value, when
// present in a cluster, wins; 0 always wins.
func snapTimes(spans []trace.Span, wall float64) {
	vals := make([]float64, 0, 2*len(spans)+1)
	for i := range spans {
		vals = append(vals, spans[i].Start, spans[i].End)
	}
	vals = append(vals, wall)
	sort.Float64s(vals)
	tol := snapTol * wall
	if tol <= 0 {
		return
	}
	// Build cluster representatives.
	rep := make(map[float64]float64)
	for i := 0; i < len(vals); {
		j := i
		for j+1 < len(vals) && vals[j+1]-vals[j] <= tol {
			j++
		}
		r := vals[j] // default: largest member
		for k := i; k <= j; k++ {
			if vals[k] == 0 {
				r = 0
			}
		}
		for k := i; k <= j; k++ {
			if vals[k] == wall {
				r = wall
			}
		}
		for k := i; k <= j; k++ {
			rep[vals[k]] = r
		}
		i = j + 1
	}
	for i := range spans {
		spans[i].Start = rep[spans[i].Start]
		spans[i].End = rep[spans[i].End]
		if spans[i].End < spans[i].Start {
			spans[i].End = spans[i].Start
		}
	}
}

// cpuAdvancing reports whether a span advances the CPU clock (and so
// belongs to the CPU chain).
func cpuAdvancing(s *trace.Span) bool {
	if s.End <= s.Start {
		return false
	}
	switch s.Kind {
	case trace.KindCPU, trace.KindStall, trace.KindFallback:
		return true
	case trace.KindHtoD, trace.KindDtoH:
		return s.Lane == trace.LaneXfer // stream copies do not stall the CPU
	case trace.KindFault:
		return true // failed driver call charged inline
	}
	return false
}

// Analyze reconstructs the operation graph from one run's spans and
// extracts the critical path. wall is Stats.Wall for live runs; pass
// WallOf(spans) when only a trace file is available. Spans must be in
// emission (issue) order, which both Report.Spans and ReadChrome
// preserve.
func Analyze(spans []trace.Span, wall float64) (*Analysis, error) {
	a := &Analysis{Wall: wall}
	a.spans = make([]trace.Span, len(spans))
	copy(a.spans, spans)
	snapTimes(a.spans, wall)
	if err := a.build(); err != nil {
		return nil, err
	}
	if err := a.sweep(); err != nil {
		return nil, err
	}
	a.classify()
	a.laneStats()
	a.queueStats()
	a.overlapStats()
	return a, nil
}

// WallOf returns the wall implied by a span set: the latest span end.
func WallOf(spans []trace.Span) float64 {
	var w float64
	for i := range spans {
		if spans[i].End > w {
			w = spans[i].End
		}
	}
	return w
}

// build turns spans into ops: the CPU chain (with synthetic gap ops
// covering untraced clock advancement), the kernels, and the stream
// copies, in issue order.
func (a *Analysis) build() error {
	cursor := 0.0 // CPU-chain coverage so far
	for i := range a.spans {
		s := &a.spans[i]
		switch {
		case s.Kind == trace.KindKernel:
			a.ops = append(a.ops, op{kind: opKernel, span: i, start: s.Start, end: s.End, lane: s.Lane})
		case s.Lane >= trace.LaneStreamBase && (s.Kind == trace.KindHtoD || s.Kind == trace.KindDtoH):
			a.ops = append(a.ops, op{kind: opCopy, span: i, start: s.Start, end: s.End, lane: s.Lane})
		case cpuAdvancing(s):
			start, end := s.Start, s.End
			if end <= cursor {
				continue // fully shadowed by an enclosing CPU span (degraded-run artifacts)
			}
			if start < cursor {
				start = cursor // partial overlap: keep the uncovered tail
			}
			if start > cursor {
				// Untraced CPU-clock advancement (enqueue, cuMemAlloc):
				// synthesize an overhead op so the chain stays contiguous.
				a.ops = append(a.ops, op{kind: opGap, span: -1, start: cursor, end: start, lane: trace.LaneCPU})
			}
			k := opCPU
			switch s.Kind {
			case trace.KindStall:
				if s.Name == "retry backoff" {
					k = opBackoff
				} else {
					k = opStall
				}
			case trace.KindFault:
				k = opBackoff
			case trace.KindHtoD, trace.KindDtoH:
				k = opXfer
			}
			a.ops = append(a.ops, op{kind: k, span: i, start: start, end: end, lane: s.Lane})
			cursor = end
		}
	}
	if a.Wall > cursor {
		// Trailing untraced CPU time (or a GPU/stream-bound wall in a
		// trace cut before the final sync).
		last := cursor
		for _, o := range a.ops {
			if o.end > last && o.end <= a.Wall {
				last = o.end
			}
		}
		if a.Wall > last {
			a.ops = append(a.ops, op{kind: opGap, span: -1, start: last, end: a.Wall, lane: trace.LaneCPU})
		}
	} else if cursor > a.Wall {
		return fmt.Errorf("critpath: CPU chain runs to %g past wall %g", cursor, a.Wall)
	}
	return nil
}

// priority orders candidates ending at the same instant: prefer the op
// that causally produced the time (kernel, then copies, then transfers,
// then CPU work, then synthetic overhead; stalls last — a stall's end
// always coincides with its cause's end, and crediting the cause is what
// makes "Comm." mean communication rather than "waiting").
func priority(k opKind) int {
	switch k {
	case opKernel:
		return 6
	case opCopy:
		return 5
	case opXfer:
		return 4
	case opCPU:
		return 3
	case opBackoff:
		return 2
	case opGap:
		return 1
	}
	return 0 // opStall
}

// sweep extracts the critical path by walking backward from the wall.
func (a *Analysis) sweep() error {
	endIdx := make(map[float64][]int)
	for i := range a.ops {
		o := &a.ops[i]
		if o.end > o.start {
			endIdx[o.end] = append(endIdx[o.end], i)
		}
	}
	var segs []Segment
	t := a.Wall
	for t > 0 {
		best := -1
		for _, c := range endIdx[t] {
			if best == -1 || priority(a.ops[c].kind) > priority(a.ops[best].kind) ||
				(priority(a.ops[c].kind) == priority(a.ops[best].kind) && c > best) {
				best = c
			}
		}
		if best == -1 {
			// Nothing ends exactly at t: the cursor sits inside untraced
			// time (e.g. a CPU-bound kernel start strictly inside an
			// enqueue gap). Synthesize overhead down to the latest
			// boundary below t.
			lo := 0.0
			for i := range a.ops {
				if a.ops[i].end < t && a.ops[i].end > lo {
					lo = a.ops[i].end
				}
			}
			segs = append(segs, Segment{Start: lo, End: t, Class: ClassOverhead, Kind: "overhead", Lane: trace.LaneCPU, SpanIndex: -1})
			t = lo
			continue
		}
		o := &a.ops[best]
		seg := Segment{Start: o.start, End: t, Class: classOf(o), Lane: o.lane, SpanIndex: o.span}
		if o.span >= 0 {
			seg.Kind = a.spans[o.span].Kind.String()
			seg.Name = a.spans[o.span].Name
		} else {
			seg.Kind = "overhead"
		}
		segs = append(segs, seg)
		if o.start >= t {
			return fmt.Errorf("critpath: non-advancing segment at %g", t)
		}
		t = o.start
		if len(segs) > 4*len(a.ops)+8 {
			return fmt.Errorf("critpath: path did not converge")
		}
	}
	// Reverse into time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	a.Path = segs
	return a.Validate()
}

// classify fills ByClass and the Table 3 limiting-factor verdict: the
// largest of the GPU, communication, and everything-else shares of the
// critical path.
func (a *Analysis) classify() {
	for i := range a.Path {
		a.ByClass[a.Path[i].Class] += a.Path[i].End - a.Path[i].Start
	}
	gpu := a.ByClass[ClassGPU]
	comm := a.ByClass[ClassComm]
	other := a.ByClass[ClassCPU] + a.ByClass[ClassOverhead] + a.ByClass[ClassStall]
	switch {
	case gpu >= comm && gpu >= other:
		a.Limiting = "GPU"
	case comm >= other:
		a.Limiting = "Comm."
	default:
		a.Limiting = "Other"
	}
}

// laneStats computes per-lane busy time and the on-path share.
func (a *Analysis) laneStats() {
	busy := make(map[trace.Lane]*LaneStat)
	get := func(l trace.Lane) *LaneStat {
		st, ok := busy[l]
		if !ok {
			st = &LaneStat{Lane: l}
			busy[l] = st
		}
		return st
	}
	for i := range a.ops {
		o := &a.ops[i]
		if o.kind == opStall {
			get(o.lane).Stall += o.dur()
		} else {
			get(o.lane).Busy += o.dur()
		}
	}
	for i := range a.Path {
		seg := &a.Path[i]
		if seg.Class != ClassStall {
			get(seg.Lane).OnCP += seg.End - seg.Start
		}
	}
	for _, st := range busy {
		a.Lanes = append(a.Lanes, *st)
	}
	sort.Slice(a.Lanes, func(i, j int) bool { return a.Lanes[i].Lane < a.Lanes[j].Lane })
}

// queueStats aggregates issue-to-start delay per stream via the flow
// links between issue instants and copy spans.
func (a *Analysis) queueStats() {
	issueAt := make(map[uint64]float64)
	for i := range a.spans {
		s := &a.spans[i]
		if s.Kind == trace.KindIssue && s.Flow != 0 {
			issueAt[s.Flow] = s.Start
		}
	}
	qs := make(map[trace.Lane]*QueueStat)
	for i := range a.spans {
		s := &a.spans[i]
		if s.Lane < trace.LaneStreamBase || (s.Kind != trace.KindHtoD && s.Kind != trace.KindDtoH) {
			continue
		}
		st, ok := qs[s.Lane]
		if !ok {
			st = &QueueStat{Lane: s.Lane}
			qs[s.Lane] = st
		}
		st.Copies++
		st.CopyTime += s.End - s.Start
		if t, ok := issueAt[s.Flow]; ok && s.Flow != 0 {
			d := s.Start - t
			st.Total += d
			if d > st.Max {
				st.Max = d
			}
		}
	}
	for _, st := range qs {
		a.Queues = append(a.Queues, *st)
	}
	sort.Slice(a.Queues, func(i, j int) bool { return a.Queues[i].Lane < a.Queues[j].Lane })
}

// overlapStats measures how much communication time ran under other
// work: for each stream copy, the portion of its interval covered by
// CPU compute, CPU overhead (launch enqueue, device allocation) or
// kernel execution.
func (a *Analysis) overlapStats() {
	var busyIv [][2]float64
	for i := range a.ops {
		o := &a.ops[i]
		if o.kind == opCPU || o.kind == opGap || o.kind == opKernel {
			busyIv = append(busyIv, [2]float64{o.start, o.end})
		}
	}
	sort.Slice(busyIv, func(i, j int) bool { return busyIv[i][0] < busyIv[j][0] })
	// Merge into disjoint intervals.
	merged := busyIv[:0]
	for _, iv := range busyIv {
		if n := len(merged); n > 0 && iv[0] <= merged[n-1][1] {
			if iv[1] > merged[n-1][1] {
				merged[n-1][1] = iv[1]
			}
		} else {
			merged = append(merged, iv)
		}
	}
	covered := func(lo, hi float64) float64 {
		var c float64
		for _, iv := range merged {
			if iv[1] <= lo {
				continue
			}
			if iv[0] >= hi {
				break
			}
			l, h := iv[0], iv[1]
			if l < lo {
				l = lo
			}
			if h > hi {
				h = hi
			}
			c += h - l
		}
		return c
	}
	ov := &a.Overlap
	for i := range a.ops {
		o := &a.ops[i]
		switch o.kind {
		case opXfer:
			ov.CommTime += o.dur()
		case opCopy:
			ov.CommTime += o.dur()
			ov.AsyncTime += o.dur()
			ov.Hidden += covered(o.start, o.end)
		}
	}
	ov.OnPath = a.ByClass[ClassComm]
	if ov.CommTime > 0 {
		ov.Efficiency = ov.Hidden / ov.CommTime
	}
}

// Render prints the analysis in a compact human-readable report.
func (a *Analysis) Render(w *strings.Builder) {
	fmt.Fprintf(w, "wall %12.2fus   limiting factor: %s\n", a.Wall*1e6, a.Limiting)
	fmt.Fprintf(w, "critical path (%d segments, sums to wall):\n", len(a.Path))
	order := []Class{ClassGPU, ClassComm, ClassCPU, ClassOverhead, ClassStall}
	for _, c := range order {
		if a.ByClass[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s %12.2fus  %5.1f%%\n", c, a.ByClass[c]*1e6, 100*a.ByClass[c]/a.Wall)
	}
	fmt.Fprintf(w, "lane utilization:\n")
	for _, l := range a.Lanes {
		fmt.Fprintf(w, "  %-13s busy %10.2fus (%5.1f%%)  on-path %10.2fus",
			l.Lane, l.Busy*1e6, 100*l.Busy/a.Wall, l.OnCP*1e6)
		if l.Stall > 0 {
			fmt.Fprintf(w, "  stall %10.2fus", l.Stall*1e6)
		}
		fmt.Fprintf(w, "\n")
	}
	if len(a.Queues) > 0 {
		fmt.Fprintf(w, "stream queueing (issue -> DMA start):\n")
		for _, q := range a.Queues {
			avg := 0.0
			if q.Copies > 0 {
				avg = q.Total / float64(q.Copies)
			}
			fmt.Fprintf(w, "  %-13s %4d copies  avg delay %8.2fus  max %8.2fus  busy %10.2fus\n",
				q.Lane, q.Copies, avg*1e6, q.Max*1e6, q.CopyTime*1e6)
		}
	}
	if a.Overlap.CommTime > 0 {
		fmt.Fprintf(w, "communication: total %.2fus, on-path %.2fus, hidden %.2fus (overlap efficiency %.1f%%)\n",
			a.Overlap.CommTime*1e6, a.Overlap.OnPath*1e6, a.Overlap.Hidden*1e6, 100*a.Overlap.Efficiency)
	}
}
