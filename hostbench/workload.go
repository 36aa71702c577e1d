package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opClass is one operation class of a workload: what a round visits
// mult times.
type opClass struct {
	name string
	// band groups classes whose latencies sit together, for workloads
	// whose classes fall into disjoint latency bands (checkBands).
	band string
	mult int
}

// instance is one set-up copy of a workload: inputs built, programs
// precompiled, server started.
type instance interface {
	// do runs occurrence k (0 <= k < mult) of class c and verifies its
	// result against the goldens. lat covers the operation alone; a
	// non-nil err marks the operation failed. With a tracer the
	// span-recording driver runs instead of the product entry point.
	do(c, k int, nonce uint64, tr *tracer, op int) (lat time.Duration, err error)
	// checkDrivers fails when a span-recording driver no longer produces
	// what the product entry point produces.
	checkDrivers() error
	// layers adds the workload-derived per-layer metrics of the traced
	// operations run so far.
	layers(m map[string]float64)
	close() error
}

// workload is a fixed list of operation classes plus how to set one up.
type workload struct {
	name    string
	why     string
	clients int // closed-loop callers; each waits for its result
	// calEvery is how often a timed run takes a calibration burst: often
	// enough to follow the clock, rarely enough to cost a few percent.
	calEvery time.Duration
	classes  []opClass
	// bands lists the latency bands of the classes, cheapest first, when
	// they are disjoint (checkBands); nil otherwise.
	bands   []string
	prepare func(g *goldens) (instance, error)
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

type slot struct{ c, k int }

func (w *workload) slots() []slot {
	var s []slot
	for c, cl := range w.classes {
		for k := 0; k < cl.mult; k++ {
			s = append(s, slot{c, k})
		}
	}
	return s
}

// schedule hands out operations round by round. Every round visits
// every slot once, in a permutation drawn from (seed, round), so the
// composition of the sample does not depend on how many rounds fit.
//
// When calEvery is set, the schedule also takes a calibration burst
// (see burst) whenever that much time has passed since the last one: it
// waits until no operation is in flight, so the burst runs alone.
type schedule struct {
	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight drops to zero
	slots    []slot
	seed     int64
	round    int // current round; the first is `first`
	first    int
	perm     []int
	pos      int
	op       int
	inflight int
	// more reports whether round r (0-based count of rounds started)
	// should start.
	more     func(r int) bool
	done     bool
	calEvery time.Duration
	bursts   []burst
}

func newSchedule(w *workload, seed int64, first int, more func(int) bool, calEvery time.Duration) *schedule {
	s := &schedule{slots: w.slots(), seed: seed, round: first, first: first, more: more, calEvery: calEvery}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// next hands out the next operation. seg is the index of the
// calibration burst that precedes it.
func (s *schedule) next() (sl slot, nonce uint64, op, seg int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.calEvery > 0 && !s.done && (len(s.bursts) == 0 || time.Since(s.bursts[len(s.bursts)-1].end) >= s.calEvery) {
		if s.inflight > 0 {
			s.idle.Wait()
			continue
		}
		s.bursts = append(s.bursts, takeBurst())
	}
	if s.done {
		return slot{}, 0, 0, 0, false
	}
	if s.perm == nil || s.pos == len(s.perm) {
		if s.perm != nil {
			s.round++
		}
		if !s.more(s.round - s.first) {
			s.done = true
			s.idle.Broadcast()
			return slot{}, 0, 0, 0, false
		}
		s.perm = rand.New(rand.NewSource(s.seed*1_000_003 + int64(s.round))).Perm(len(s.slots))
		s.pos = 0
	}
	i := s.perm[s.pos]
	s.pos++
	op = s.op
	s.op++
	s.inflight++
	return s.slots[i], splitmix(uint64(s.seed), uint64(int64(s.round)), uint64(i)), op, len(s.bursts) - 1, true
}

// finished reports that an operation next handed out is over.
func (s *schedule) finished() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// splitmix hashes its arguments into a nonce (splitmix64 finalizer).
func splitmix(vs ...uint64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		x += v + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// A burst is one run of a fixed integer loop. The machines this runs on
// change speed under the benchmark — the clock steps between two
// frequencies every few seconds, by a quarter — and a burst taken beside
// an operation says which speed the operation ran at. burstRefNS is what
// a burst takes at the speed all times are reported at: a measured time
// is multiplied by burstRefNS over the mean of the bursts on either side
// of it, which cancels the clock. The loop calls nothing, touches no
// memory and is not part of the product, so no change to the product
// moves it.
type burst struct{ start, end time.Time }

const (
	burstIters = 2_000_000
	burstRefNS = 2_400_000
)

func takeBurst() burst {
	b := burst{start: time.Now()}
	x := uint64(1)
	for i := 0; i < burstIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink.Store(x)
	b.end = time.Now()
	return b
}

func (b burst) ns() float64 { return float64(b.end.Sub(b.start).Nanoseconds()) }

// opRec is one verified operation.
type opRec struct {
	class int
	seg   int // index of the burst before it; -1 without calibration
	ms    float64
}

// sample is what one measured phase produced.
type sample struct {
	classes   int
	ops       []opRec
	bursts    []burst
	wall      time.Duration // first operation to last, bursts included
	attempted int
	failed    int
	rounds    int
	allocB    uint64 // MemStats.TotalAlloc delta
	mallocs   uint64 // MemStats.Mallocs delta
	numGC     uint32
}

func (s *sample) verified() int { return s.attempted - s.failed }

// add folds another burst-free sample of the same workload into s.
func (s *sample) add(o *sample) {
	s.classes = o.classes
	s.ops = append(s.ops, o.ops...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.rounds += o.rounds
	s.wall += o.wall
	s.allocB += o.allocB
	s.mallocs += o.mallocs
	s.numGC += o.numGC
}

// factor is what a time measured in segment seg (between bursts seg
// and seg+1) is multiplied by to cancel the clock; 1 when raw times are
// wanted or no bursts were taken. It trusts the faster of the two
// bursts: a burst can only be slowed from outside, and a slowed burst
// would make the operations beside it look faster than they were.
func (s *sample) factor(seg int, calibrated bool) float64 {
	if !calibrated || seg < 0 || seg+1 >= len(s.bursts) {
		return 1
	}
	return burstRefNS / min(s.bursts[seg].ns(), s.bursts[seg+1].ns())
}

// latencies returns the verified latencies per class in milliseconds,
// and the measured seconds they took (bursts excluded).
func (s *sample) latencies(calibrated bool) (perClass [][]float64, seconds float64) {
	perClass = make([][]float64, s.classes)
	for _, o := range s.ops {
		perClass[o.class] = append(perClass[o.class], o.ms*s.factor(o.seg, calibrated))
	}
	if len(s.bursts) < 2 {
		return perClass, s.wall.Seconds()
	}
	for seg := 0; seg+1 < len(s.bursts); seg++ {
		seconds += s.bursts[seg+1].start.Sub(s.bursts[seg].end).Seconds() * s.factor(seg, calibrated)
	}
	return perClass, seconds
}

// measure runs rounds of w on inst from round index `first` while more
// says so, taking a calibration burst every calEvery (0 = none). Traced
// rounds pass tr; it is nil on timed runs.
func measure(w *workload, inst instance, seed int64, first int, more func(r int) bool, calEvery time.Duration, tr *tracer) *sample {
	sch := newSchedule(w, seed, first, more, calEvery)
	perClient := make([]*sample, w.clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range perClient {
		cs := &sample{}
		perClient[i] = cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sl, nonce, op, seg, ok := sch.next()
				if !ok {
					return
				}
				if tr != nil {
					op = tr.newOp(w.classes[sl.c].name)
				}
				lat, err := inst.do(sl.c, sl.k, nonce, tr, op)
				sch.finished()
				cs.attempted++
				if err != nil {
					cs.failed++
					if cs.failed <= 3 {
						fmt.Fprintf(os.Stderr, "hostbench: %s: %s failed: %v\n", w.name, w.classes[sl.c].name, err)
					}
					continue
				}
				cs.ops = append(cs.ops, opRec{sl.c, seg, float64(lat.Nanoseconds()) / 1e6})
			}
		}()
	}
	wg.Wait()
	if calEvery > 0 {
		sch.bursts = append(sch.bursts, takeBurst())
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	out := &sample{
		classes: len(w.classes),
		bursts:  sch.bursts,
		rounds:  sch.round - first,
		wall:    wall,
		allocB:  ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		numGC:   ms1.NumGC - ms0.NumGC,
	}
	for _, cs := range perClient {
		out.attempted += cs.attempted
		out.failed += cs.failed
		out.ops = append(out.ops, cs.ops...)
	}
	return out
}

// forSeconds starts rounds until d has elapsed; whole rounds only.
func forSeconds(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(r int) bool { return r == 0 || time.Now().Before(deadline) }
}

func forRounds(n int) func(int) bool { return func(r int) bool { return r < n } }

// floorPct is the percentile of a class's calibrated latencies taken as
// the class's floor; it is the minimum while a class has 20 samples or
// fewer.
const floorPct = 5

// endToEnd computes the end-to-end metrics of a timed sample.
//
// The timing metrics are built on class floors, not on the whole
// distribution. The operations of a class are repeats of one
// deterministic computation, so what spreads them is the machine — its
// clock, which calibration cancels, and its neighbours, which only ever
// slow an operation down. The floor is what the code costs; everything
// above it is the weather. On the shared 2-core machines this runs on,
// medians of the same commit differ by 20-40% between runs and floors by
// a few percent. The true distribution is in the result file (raw) and
// in the per-layer server metrics.
func endToEnd(w *workload, s *sample, setupS float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":         setupS,
		"alloc_mb_per_op": float64(s.allocB) / 1e6 / float64(s.attempted),
		"mallocs_per_op":  float64(s.mallocs) / float64(s.attempted),
	}
	perClass, _ := s.latencies(true)
	var mix, floors []float64 // one entry per slot; one per class
	sum := 0.0
	for c, ls := range perClass {
		if len(ls) == 0 {
			return m // a class with no verified operation: no timing metrics
		}
		sort.Float64s(ls)
		f := percentile(ls, floorPct)
		floors = append(floors, f)
		for k := 0; k < w.classes[c].mult; k++ {
			mix = append(mix, f)
			sum += f
		}
	}
	sort.Float64s(mix)
	m["ops_per_s"] = float64(w.clients) * 1000 / (sum / float64(len(mix)))
	m["op_p50_ms"] = percentile(mix, 50)
	m["op_p95_ms"] = percentile(mix, 95)
	m["op_geomean_ms"] = geomean(floors)
	return m
}

// rawEndToEnd is the same sample without calibration or floors: measured
// throughput, percentiles over every operation, geometric mean of class
// medians.
func rawEndToEnd(s *sample, setupS float64) map[string]float64 {
	perClass, seconds := s.latencies(false)
	var all, classMedians []float64
	for _, ls := range perClass {
		if len(ls) > 0 {
			all = append(all, ls...)
			classMedians = append(classMedians, median(ls))
		}
	}
	sort.Float64s(all)
	m := map[string]float64{"setup_s": setupS}
	if len(all) > 0 {
		m["ops_per_s"] = float64(s.verified()) / seconds
		m["op_p50_ms"] = percentile(all, 50)
		m["op_p95_ms"] = percentile(all, 95)
		m["op_geomean_ms"] = geomean(classMedians)
	}
	return m
}

// checkBands asserts that p50 and p95 of the mix sit at least 2% of the
// sample away from a boundary between two of the workload's latency
// bands. A percentile that close to a boundary would flip class between
// runs.
func checkBands(w *workload) error {
	order := w.bands
	if order == nil {
		return nil
	}
	count := map[string]int{}
	total := 0
	for _, c := range w.classes {
		count[c.band] += c.mult
		total += c.mult
	}
	known := 0
	for _, b := range order {
		known += count[b]
	}
	if known != total {
		return fmt.Errorf("%s: bands %v cover %d of %d slots", w.name, order, known, total)
	}
	cum := 0
	for _, b := range order[:len(order)-1] {
		cum += count[b]
		edge := float64(cum) / float64(total)
		for _, p := range []float64{0.50, 0.95} {
			if d := p - edge; d > -0.02 && d < 0.02 {
				return fmt.Errorf("%s: p%.0f is %.1f%% of the sample from the %s band boundary at %.1f%%",
					w.name, p*100, d*100, b, edge*100)
			}
		}
	}
	return nil
}
