// Package prof is CGCM's exact source-level profiler.
//
// Unlike a sampling profiler, it counts every simulated GPU operation,
// every transferred byte, and every runtime-library call at the moment it
// happens, attributed to the kernel, the launch site, and the mini-C
// source line responsible:
//
//   - the interpreter's kernel engine folds per-instruction op counts
//     into the collector after every launch (AddKernelOps), keyed by the
//     line stamped on each IR instruction during lowering;
//   - the CGCM runtime folds every map/unmap/upload event that moved a
//     unit into a transfer row (AddTransfer), in the same function that
//     folds it into the communication ledger, so profile byte totals
//     cannot disagree with the ledger;
//   - the interpreter times each cgcm.* runtime call on the simulated
//     clock (AddRuntime);
//   - kernel wall time and launch counts come from the trace spans the
//     machine already emits (ConsumeSpans).
//
// The collected Profile renders as a flat top-N table (WriteFlat) or as
// folded stacks (WriteFolded) that flamegraph.pl / speedscope / inferno
// consume directly.
//
// The collector is mutex-protected, but none of its methods sit on the
// kernel hot path: the per-instruction counting happens in worker-local
// arrays inside the interpreter and reaches the collector only once per
// launch.
package prof

import (
	"sort"
	"sync"

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

type unitAgg struct {
	htodBytes, dtohBytes int64
	htodCount, dtohCount int64
}

type siteAgg struct {
	launches int64
	wall     float64
}

type rtAgg struct {
	calls   int64
	seconds float64
}

// Collector accumulates exact attribution records during a run. All
// methods are nil-safe: a nil collector swallows updates, so callers can
// thread one unconditionally.
type Collector struct {
	mu      sync.Mutex
	file    string
	ops     map[lineKey]int64
	sites   map[siteKey]*siteAgg
	units   map[unitKey]*unitAgg
	runtime map[rtKey]*rtAgg
}

// NewCollector returns an empty collector for the named source file.
func NewCollector(file string) *Collector {
	return &Collector{
		file:    file,
		ops:     make(map[lineKey]int64),
		sites:   make(map[siteKey]*siteAgg),
		units:   make(map[unitKey]*unitAgg),
		runtime: make(map[rtKey]*rtAgg),
	}
}

// AddKernelOps charges ops simulated GPU operations to (kernel, launch
// site, source line).
func (c *Collector) AddKernelOps(kernel string, site, line int, ops int64) {
	if c == nil || ops == 0 {
		return
	}
	c.mu.Lock()
	c.ops[lineKey{kernel, site, line}] += ops
	c.mu.Unlock()
}

// AddTransfer charges one host/device copy of bytes to the named
// allocation unit at the given source line; htod selects the direction.
// Runtime.emit calls it for the events it folds into the communication
// ledger as copies, so per-unit profile totals equal ledger totals.
func (c *Collector) AddTransfer(unit string, line int, htod bool, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	a := c.units[unitKey{unit, line}]
	if a == nil {
		a = &unitAgg{}
		c.units[unitKey{unit, line}] = a
	}
	if htod {
		a.htodBytes += bytes
		a.htodCount++
	} else {
		a.dtohBytes += bytes
		a.dtohCount++
	}
	c.mu.Unlock()
}

// AddRuntime charges seconds of simulated runtime-library time to the
// named cgcm.* call at the given source line.
func (c *Collector) AddRuntime(call string, line int, seconds float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	a := c.runtime[rtKey{call, line}]
	if a == nil {
		a = &rtAgg{}
		c.runtime[rtKey{call, line}] = a
	}
	a.calls++
	a.seconds += seconds
	c.mu.Unlock()
}

// ConsumeSpans harvests launch counts and kernel wall time from machine
// trace spans (KindKernel spans carry the launch-site line).
func (c *Collector) ConsumeSpans(spans []trace.Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, s := range spans {
		if s.Kind != trace.KindKernel {
			continue
		}
		k := siteKey{s.Name, s.Line}
		a := c.sites[k]
		if a == nil {
			a = &siteAgg{}
			c.sites[k] = a
		}
		a.launches++
		a.wall += s.End - s.Start
	}
	c.mu.Unlock()
}

// LineSample is GPU work charged to one (kernel, launch site, line).
type LineSample struct {
	Kernel string `json:"kernel"`
	Site   int    `json:"site"` // launch-site source line, 0 if unknown
	Line   int    `json:"line"` // source line inside the kernel
	GPUOps int64  `json:"gpu_ops"`
}

// SiteSample is one kernel launch site.
type SiteSample struct {
	Kernel   string  `json:"kernel"`
	Site     int     `json:"site"`
	Launches int64   `json:"launches"`
	Wall     float64 `json:"wall_seconds"`
	GPUOps   int64   `json:"gpu_ops"`
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
// renders with WriteFlat / WriteFolded.
type Profile struct {
	File        string          `json:"file"`
	TotalGPUOps int64           `json:"total_gpu_ops"`
	KernelWall  float64         `json:"kernel_wall_seconds"`
	Lines       []LineSample    `json:"lines,omitempty"`
	Sites       []SiteSample    `json:"sites,omitempty"`
	Units       []UnitSample    `json:"units,omitempty"`
	Runtime     []RuntimeSample `json:"runtime,omitempty"`
}

// Profile freezes the collector into a deterministic snapshot: lines
// sorted by descending GPU ops, everything else by name/line.
func (c *Collector) Profile() *Profile {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{File: c.file}

	siteOps := make(map[siteKey]int64, len(c.sites))
	for k, n := range c.ops {
		p.Lines = append(p.Lines, LineSample{Kernel: k.Kernel, Site: k.Site, Line: k.Line, GPUOps: n})
		p.TotalGPUOps += n
		siteOps[siteKey{k.Kernel, k.Site}] += n
	}
	sort.Slice(p.Lines, func(i, j int) bool {
		a, b := p.Lines[i], p.Lines[j]
		if a.GPUOps != b.GPUOps {
			return a.GPUOps > b.GPUOps
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Line < b.Line
	})

	for k, a := range c.sites {
		p.Sites = append(p.Sites, SiteSample{
			Kernel: k.Kernel, Site: k.Site,
			Launches: a.launches, Wall: a.wall, GPUOps: siteOps[k],
		})
		p.KernelWall += a.wall
	}
	sort.Slice(p.Sites, func(i, j int) bool {
		a, b := p.Sites[i], p.Sites[j]
		if a.Wall != b.Wall {
			return a.Wall > b.Wall
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Site < b.Site
	})

	for k, a := range c.units {
		p.Units = append(p.Units, UnitSample{
			Unit: k.Unit, Line: k.Line,
			HtoDBytes: a.htodBytes, HtoDCount: a.htodCount,
			DtoHBytes: a.dtohBytes, DtoHCount: a.dtohCount,
		})
	}
	sort.Slice(p.Units, func(i, j int) bool {
		a, b := p.Units[i], p.Units[j]
		if ta, tb := a.HtoDBytes+a.DtoHBytes, b.HtoDBytes+b.DtoHBytes; ta != tb {
			return ta > tb
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Line < b.Line
	})

	for k, a := range c.runtime {
		p.Runtime = append(p.Runtime, RuntimeSample{Call: k.Call, Line: k.Line, Calls: a.calls, Seconds: a.seconds})
	}
	sort.Slice(p.Runtime, func(i, j int) bool {
		a, b := p.Runtime[i], p.Runtime[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		if a.Call != b.Call {
			return a.Call < b.Call
		}
		return a.Line < b.Line
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
