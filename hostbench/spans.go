package main

import (
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by hostbench code around
// the layer's public functions. Name is "<layer>.<call>"; Parent indexes
// the enclosing span (-1 for an operation's root); spans of one
// operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory; they are written with the result file
// when the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	opClass []string // class name of each traced operation, by op id
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allots the id the spans of one operation share.
func (t *tracer) newOp(class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.opClass = append(t.opClass, class)
	return len(t.opClass) - 1
}

func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.spans[id].StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) dur(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].EndNS - t.spans[id].StartNS
}

// selfNS folds the spans into self time per layer: a span's duration
// minus the part its child spans cover, summed under the layer name
// (the part of Name before the first dot).
func (t *tracer) selfNS() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.EndNS - s.StartNS - child[i]
	}
	return self
}

// totalNS sums the durations of the spans with exactly this name.
func (t *tracer) totalNS(name string) (ns int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
			n++
		}
	}
	return ns, n
}
