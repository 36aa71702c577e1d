// Package prof is CGCM's exact source-level profiler.
//
// Unlike a sampling profiler, it counts every simulated GPU operation,
// every transferred byte, and every runtime-library call, attributed to the
// kernel, the launch site, and the mini-C source line responsible. A
// profile is a pure fold of a run's event log (FromLog), read after the
// run; no layer of the run knows it exists:
//
//   - the interpreter's kernel engine books one EvLineOps event per
//     (launch, source line) after every launch barrier, from per-pc
//     counters keyed by the line stamped on each IR instruction during
//     lowering; a launch that ran as CPU fallback books its lines on the
//     CPU lane, and they fold into the fallback columns;
//   - the CGCM runtime's copied map/unmap/upload events become transfer
//     rows — the same events the communication ledger folds, so profile
//     byte totals cannot disagree with the ledger;
//   - the interpreter times each cgcm.* runtime call on the simulated
//     clock and books it as an EvCall event;
//   - launch counts and kernel wall time come from the machine's EvKernel
//     and EvFallback events.
//
// The Profile renders as a flat top-N table (WriteFlat) or as folded
// stacks (WriteFolded) that flamegraph.pl / speedscope / inferno consume
// directly.
package prof

import (
	"cmp"
	"slices"
	"strings"

	"cgcm/internal/trace"
)

type lineKey struct {
	Kernel string
	Site   int // launch-site source line (0 = unknown)
	Line   int // source line inside the kernel
}

type siteKey struct {
	Kernel string
	Site   int
}

type unitKey struct {
	Unit string
	Line int
}

type rtKey struct {
	Call string
	Line int
}

// LineSample is the work charged to one (kernel, launch site, line): GPU
// ops, and the ops of launches that ran as CPU fallback after the device
// degraded.
type LineSample struct {
	Kernel      string `json:"kernel"`
	Site        int    `json:"site"` // launch-site source line, 0 if unknown
	Line        int    `json:"line"` // source line inside the kernel
	GPUOps      int64  `json:"gpu_ops"`
	FallbackOps int64  `json:"fallback_ops,omitempty"`
}

// SiteSample is one kernel launch site: its GPU launches, their wall and
// ops, and its CPU-fallback launches and their ops.
type SiteSample struct {
	Kernel           string  `json:"kernel"`
	Site             int     `json:"site"`
	Launches         int64   `json:"launches"`
	Wall             float64 `json:"wall_seconds"`
	GPUOps           int64   `json:"gpu_ops"`
	FallbackLaunches int64   `json:"fallback_launches,omitempty"`
	FallbackOps      int64   `json:"fallback_ops,omitempty"`
}

// UnitSample is transfer traffic charged to one (allocation unit, line).
type UnitSample struct {
	Unit      string `json:"unit"`
	Line      int    `json:"line"`
	HtoDBytes int64  `json:"htod_bytes"`
	HtoDCount int64  `json:"htod_copies"`
	DtoHBytes int64  `json:"dtoh_bytes"`
	DtoHCount int64  `json:"dtoh_copies"`
}

// RuntimeSample is simulated time spent in one cgcm.* call site.
type RuntimeSample struct {
	Call    string  `json:"call"`
	Line    int     `json:"line"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// Profile is the frozen, sorted result of a run. It marshals to JSON and
// renders with WriteFlat / WriteFolded. On a run that finished,
// TotalGPUOps equals its Stats.GPUOps and TotalFallbackOps its
// Stats.FallbackOps: both sum the per-thread op counts the machine was
// charged with.
type Profile struct {
	File             string          `json:"file"`
	TotalGPUOps      int64           `json:"total_gpu_ops"`
	TotalFallbackOps int64           `json:"total_fallback_ops,omitempty"`
	KernelWall       float64         `json:"kernel_wall_seconds"`
	Lines            []LineSample    `json:"lines,omitempty"`
	Sites            []SiteSample    `json:"sites,omitempty"`
	Units            []UnitSample    `json:"units,omitempty"`
	Runtime          []RuntimeSample `json:"runtime,omitempty"`
}

// FromLog folds a run's event log into its profile for the named source
// file: lines sorted by descending GPU ops, everything else by name/line.
// Launch-site rows come from EvKernel and EvFallback events; a launch
// that faulted part-way has none, but the lines it executed still count.
func FromLog(file string, events []trace.Event) *Profile {
	lines := make(map[lineKey]*LineSample)
	sites := make(map[siteKey]*SiteSample)
	units := make(map[unitKey]*UnitSample)
	calls := make(map[rtKey]*RuntimeSample)
	site := func(ev *trace.Event) *SiteSample {
		k := siteKey{ev.Label, ev.Line}
		s := sites[k]
		if s == nil {
			s = &SiteSample{Kernel: k.Kernel, Site: k.Site}
			sites[k] = s
		}
		return s
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EvLineOps:
			k := lineKey{ev.Label, ev.Line, ev.KernelLine}
			l := lines[k]
			if l == nil {
				l = &LineSample{Kernel: k.Kernel, Site: k.Site, Line: k.Line}
				lines[k] = l
			}
			if ev.Lane == trace.LaneCPU {
				l.FallbackOps += ev.Ops
			} else {
				l.GPUOps += ev.Ops
			}
		case trace.EvKernel:
			s := site(ev)
			s.Launches++
			s.Wall += ev.End - ev.Start
		case trace.EvFallback:
			site(ev).FallbackLaunches++
		case trace.EvMap, trace.EvUnmap, trace.EvUpload:
			if !ev.Copied {
				continue
			}
			k := unitKey{ev.Unit, ev.Line}
			u := units[k]
			if u == nil {
				u = &UnitSample{Unit: k.Unit, Line: k.Line}
				units[k] = u
			}
			if ev.Kind == trace.EvUnmap {
				u.DtoHBytes += ev.Size
				u.DtoHCount++
			} else {
				u.HtoDBytes += ev.Size
				u.HtoDCount++
			}
		case trace.EvCall:
			k := rtKey{ev.Label, ev.Line}
			r := calls[k]
			if r == nil {
				r = &RuntimeSample{Call: k.Call, Line: k.Line}
				calls[k] = r
			}
			r.Calls++
			r.Seconds += ev.Dur
		}
	}

	p := &Profile{File: file}
	for k, l := range lines {
		p.Lines = append(p.Lines, *l)
		p.TotalGPUOps += l.GPUOps
		p.TotalFallbackOps += l.FallbackOps
		if s := sites[siteKey{k.Kernel, k.Site}]; s != nil {
			s.GPUOps += l.GPUOps
			s.FallbackOps += l.FallbackOps
		}
	}
	slices.SortFunc(p.Lines, func(a, b LineSample) int {
		return cmp.Or(cmp.Compare(b.GPUOps, a.GPUOps), cmp.Compare(b.FallbackOps, a.FallbackOps),
			strings.Compare(a.Kernel, b.Kernel), cmp.Compare(a.Site, b.Site), cmp.Compare(a.Line, b.Line))
	})
	for _, s := range sites {
		p.Sites = append(p.Sites, *s)
	}
	slices.SortFunc(p.Sites, func(a, b SiteSample) int {
		return cmp.Or(cmp.Compare(b.Wall, a.Wall), strings.Compare(a.Kernel, b.Kernel), cmp.Compare(a.Site, b.Site))
	})
	// Summed in row order, so the total does not depend on map order.
	for _, s := range p.Sites {
		p.KernelWall += s.Wall
	}
	for _, u := range units {
		p.Units = append(p.Units, *u)
	}
	slices.SortFunc(p.Units, func(a, b UnitSample) int {
		return cmp.Or(cmp.Compare(b.HtoDBytes+b.DtoHBytes, a.HtoDBytes+a.DtoHBytes),
			strings.Compare(a.Unit, b.Unit), cmp.Compare(a.Line, b.Line))
	})
	for _, r := range calls {
		p.Runtime = append(p.Runtime, *r)
	}
	slices.SortFunc(p.Runtime, func(a, b RuntimeSample) int {
		return cmp.Or(cmp.Compare(b.Seconds, a.Seconds), strings.Compare(a.Call, b.Call), cmp.Compare(a.Line, b.Line))
	})
	return p
}

// UnitTotals aggregates the profile's transfer traffic by allocation-unit
// name, summing over source lines: the same grouping the communication
// ledger reports, so the two can be compared directly.
func (p *Profile) UnitTotals() map[string]UnitSample {
	if p == nil {
		return nil
	}
	out := make(map[string]UnitSample)
	for _, u := range p.Units {
		t := out[u.Unit]
		t.Unit = u.Unit
		t.HtoDBytes += u.HtoDBytes
		t.HtoDCount += u.HtoDCount
		t.DtoHBytes += u.DtoHBytes
		t.DtoHCount += u.DtoHCount
		out[u.Unit] = t
	}
	return out
}

// RuntimeSeconds is the total simulated time spent in the CGCM runtime.
func (p *Profile) RuntimeSeconds() float64 {
	if p == nil {
		return 0
	}
	var s float64
	for _, r := range p.Runtime {
		s += r.Seconds
	}
	return s
}
