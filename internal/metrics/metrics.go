// Package metrics is a lightweight instrumentation registry for the CGCM
// stack: named counters, gauges, and histograms that the machine, the
// runtime library, the interpreter, and the compiler passes update while
// they work.
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every instrument method is nil-safe, so
//     hot paths hold pre-resolved instrument handles and call them
//     unconditionally; with no registry attached the handle is nil and
//     the call is a predictable no-op with no allocation.
//  2. Safe under concurrency. Bench runs measure many programs at once
//     against a shared registry, so instruments update with atomics.
//  3. Trivially exportable. Snapshot freezes the registry into a plain
//     struct that marshals to JSON and sorts deterministically.
//
// The instrument name catalogue lives with the instrumented packages; see
// DESIGN.md for the full list (machine.*, runtime.*, interp.*, compile.*).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. A nil Counter ignores
// updates.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set or accumulated. A nil Gauge ignores
// updates.
type Gauge struct {
	name string
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates d into the gauge with a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets (the last
// bucket is implicit +Inf) and tracks the running sum and count. A nil
// Histogram ignores updates.
type Histogram struct {
	name    string
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // math.Float64bits accumulator
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor: the standard shape for transfer sizes and
// durations.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named instruments. The zero value is unusable; use New.
// A nil *Registry hands out nil instruments, so callers can resolve
// handles unconditionally.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter; nil when the
// registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{name: name}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge; nil when the
// registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram; nil when
// the registry is nil. Bounds are fixed at first creation; a second
// caller asking for the same name with different bounds panics, because
// two meanings for one name is a bug worth failing loudly on.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("metrics: histogram %q redefined with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("metrics: histogram %q redefined with different bounds", name))
			}
		}
		return h
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
	}
	h = &Histogram{name: name, bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	r.hists[name] = h
	return h
}

// HistSnapshot is a frozen histogram.
type HistSnapshot struct {
	Name string `json:"name"`
	// Bounds are the ascending upper bounds; the final bucket is +Inf.
	// They are the histogram's own, shared by every snapshot of it:
	// nothing writes them after creation, and a reader (expo.go) must not.
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	// Interpolated quantile estimates (see Quantile), frozen at
	// snapshot time; 0 when the histogram is empty.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// NamedValue is one frozen counter or gauge.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a frozen, sorted view of a registry, ready for JSON.
type Snapshot struct {
	Counters   []NamedValue   `json:"counters,omitempty"`
	Gauges     []NamedValue   `json:"gauges,omitempty"`
	Histograms []HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Nil registries freeze to nil. It
// allocates what it returns and nothing else: the three lists at their
// final size and each histogram's buckets.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   sized[NamedValue](len(r.ctrs)),
		Gauges:     sized[NamedValue](len(r.gauges)),
		Histograms: sized[HistSnapshot](len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Name:    name,
			Bounds:  h.bounds,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Buckets: make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		hs.fillQuantiles()
		s.Histograms = append(s.Histograms, hs)
	}
	byName := func(a, b NamedValue) int { return strings.Compare(a.Name, b.Name) }
	slices.SortFunc(s.Counters, byName)
	slices.SortFunc(s.Gauges, byName)
	slices.SortFunc(s.Histograms, func(a, b HistSnapshot) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// sized returns an empty slice with room for n, nil when n is 0.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// Counter returns the named frozen counter value, or 0.
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return int64(c.Value)
		}
	}
	return 0
}

// Gauge returns the named frozen gauge value, or 0.
func (s *Snapshot) Gauge(name string) float64 {
	if s == nil {
		return 0
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named frozen histogram, or nil.
func (s *Snapshot) Histogram(name string) *HistSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}
