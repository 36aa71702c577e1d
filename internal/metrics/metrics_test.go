package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", ExpBuckets(1, 2, 4))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	// All updates and reads on nil instruments are no-ops.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}
}

func TestNilInstrumentUpdateAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("z", ExpBuckets(1, 2, 4))
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(7)
	})
	if allocs != 0 {
		t.Fatalf("nil instrument updates allocated %v times per run", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("machine.kernel.launches")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("machine.kernel.launches") != c {
		t.Fatalf("same name must resolve to the same counter")
	}
	g := r.Gauge("machine.wall_seconds")
	g.Set(1.5)
	g.Add(0.25)
	if got := g.Value(); got != 1.75 {
		t.Fatalf("gauge = %v, want 1.75", got)
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("xfer", []float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 1022 {
		t.Fatalf("sum = %v, want 1022", h.Sum())
	}
	s := r.Snapshot().Histogram("xfer")
	want := []int64{2, 1, 1} // <=10: {1,10}; <=100: {11}; +Inf: {1000}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
}

func TestHistogramRedefinitionPanics(t *testing.T) {
	r := New()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatalf("redefining histogram bounds must panic")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(64, 4, 4)
	want := []float64{64, 256, 1024, 4096}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 10, 3))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 || h.Sum() != 40000 {
		t.Fatalf("histogram count=%d sum=%v, want 8000/40000", h.Count(), h.Sum())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(3)
	r.Histogram("m", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	if s.Counter("a") != 2 || s.Counter("missing") != 0 {
		t.Fatalf("snapshot counter lookup broken")
	}
}

// TestSnapshotAllocations: a snapshot allocates what it returns — itself,
// its three lists at their final size and each histogram's buckets — and
// nothing to sort or copy with. The registry is a cgcmd tenant's: 14
// counters, 8 gauges and 4 histograms. It cost 30 objects when the lists
// grew by append, sort.Slice built a reflect swapper per list and every
// snapshot copied every histogram's bounds; now 8, and the bound is one
// above that.
func TestSnapshotAllocations(t *testing.T) {
	r := New()
	for i := 0; i < 14; i++ {
		r.Counter(fmt.Sprintf("c%02d", 13-i)).Add(int64(i))
	}
	for i := 0; i < 8; i++ {
		r.Gauge(fmt.Sprintf("g%d", 7-i)).Set(float64(i))
	}
	for i := 0; i < 4; i++ {
		r.Histogram(fmt.Sprintf("h%d", 3-i), ExpBuckets(1, 4, 13)).Observe(float64(i))
	}
	if n := testing.AllocsPerRun(20, func() { r.Snapshot() }); n > 9 {
		t.Errorf("a snapshot allocates %.0f objects, more than 9", n)
	}
	s := r.Snapshot()
	if len(s.Counters) != 14 || s.Counters[0].Name != "c00" || s.Gauges[0].Name != "g0" || s.Histograms[0].Name != "h0" {
		t.Errorf("snapshot lists not full and sorted: %+v", s)
	}
}
