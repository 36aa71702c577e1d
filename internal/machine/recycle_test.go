package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cgcm/internal/faultinject"
)

// Device-segment recycling (Machine.deviceBuf) changes host memory only.
// These tests pin what it must not change — zeroed memory, addresses, the
// device-memory accounting, the governor's and the fault plan's call
// sequences — and what it must: a freed segment loses its bytes, the list
// is bounded by the device high-water mark, and the map/release cycle
// stops allocating.

// TestFreedSegmentLosesItsBytes: a *Segment held past Free must not alias
// the unit its buffer backs next.
func TestFreedSegmentLosesItsBytes(t *testing.T) {
	m := newM()
	base := m.Alloc(GPU, 64, "d")
	seg := m.FindSegment(base)
	if !seg.Store(base, 8, 0xfeed) {
		t.Fatal("store into a live segment failed")
	}
	if err := m.Free(GPU, base); err != nil {
		t.Fatal(err)
	}
	if seg.Data != nil {
		t.Errorf("freed segment still holds %d bytes", len(seg.Data))
	}
	if _, ok := seg.Load(base, 8); ok {
		t.Error("Load on a freed segment succeeded")
	}
	if _, ok := seg.Load(base, 1); ok {
		t.Error("1-byte Load on a freed segment succeeded")
	}
	if seg.Store(base, 8, 1) || seg.Store(base, 1, 1) {
		t.Error("Store on a freed segment succeeded")
	}
	// The next unit of that size takes the buffer; the stale segment must
	// still see nothing.
	next := m.Alloc(GPU, 64, "e")
	if err := m.Store(next, 8, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if _, ok := seg.Load(base, 8); ok {
		t.Error("stale segment reads the next unit's bytes")
	}
	if m.FindSegment(base) != nil || m.LookupSegment(base) != nil {
		t.Error("freed base still resolves")
	}
}

// TestFreedSegmentIsNeverReused: Segments come from a slab but are never
// handed out twice, in either space — an inline cache may hold one past
// its Free — and a freed CPU segment loses its bytes too, so the slab
// keeps none alive.
func TestFreedSegmentIsNeverReused(t *testing.T) {
	for _, space := range []Space{CPU, GPU} {
		m := newM()
		freed := make(map[*Segment]bool)
		for i := 0; i < 600; i++ { // past the largest chunk
			base := m.Alloc(space, 64, "u")
			seg := m.FindSegment(base)
			if freed[seg] {
				t.Fatalf("%s: allocation %d got a freed *Segment", space, i)
			}
			if err := m.Free(space, base); err != nil {
				t.Fatal(err)
			}
			if seg.Data != nil {
				t.Fatalf("%s: freed segment still holds %d bytes", space, len(seg.Data))
			}
			freed[seg] = true
		}
	}
}

// TestRecycledBufferReadsZero: machine memory is zeroed, recycled or not,
// and recycling hands out the same addresses the parent did: the device
// space only grows.
func TestRecycledBufferReadsZero(t *testing.T) {
	m := newM()
	const size = 4096 + 3 // not a multiple of the alignment
	first := m.Alloc(GPU, size, "d")
	seg := m.FindSegment(first)
	for i := range seg.Data {
		seg.Data[i] = 0xa5
	}
	dirty := &seg.Data[0]
	if err := m.Free(GPU, first); err != nil {
		t.Fatal(err)
	}
	second := m.Alloc(GPU, size, "d")
	if want := first + align(size); second != want {
		t.Errorf("second base = %#x, want %#x: recycling must not reuse addresses", second, want)
	}
	seg = m.FindSegment(second)
	if len(seg.Data) != size {
		t.Fatalf("recycled segment holds %d bytes, want %d", len(seg.Data), size)
	}
	if &seg.Data[0] != dirty {
		t.Error("same-size allocation after a free did not take the freed buffer")
	}
	for i, b := range seg.Data {
		if b != 0 {
			t.Fatalf("byte %d of a recycled buffer reads %#x, want 0", i, b)
		}
	}
	// A CPU segment of that size never takes a device buffer.
	host := m.Alloc(CPU, size, "h")
	if err := m.Free(GPU, second); err != nil {
		t.Fatal(err)
	}
	host2 := m.Alloc(CPU, size, "h")
	if &m.FindSegment(host2).Data[0] == dirty || &m.FindSegment(host).Data[0] == dirty {
		t.Error("a host segment took a device buffer")
	}
}

// pooledBytes recounts the free list, checking the running total against it.
func pooledBytes(t *testing.T, m *Machine) int64 {
	t.Helper()
	var n int64
	for size, l := range m.free {
		for _, buf := range l {
			if int64(len(buf)) != size {
				t.Fatalf("a %d-byte buffer is filed under size %d", len(buf), size)
			}
			n += int64(align(uint64(size)))
		}
	}
	if n != m.pooled {
		t.Fatalf("pooled = %d, the list holds %d", m.pooled, n)
	}
	return n
}

// TestPoolBoundedByPeak: however many distinct sizes a program frees, the
// host memory behind device segments, live and pooled, stays within the
// most device memory it ever had live.
func TestPoolBoundedByPeak(t *testing.T) {
	m := newM()
	check := func(step string) {
		t.Helper()
		if live, pooled := m.GPUMemUsed(), pooledBytes(t, m); live+pooled > m.GPUMemPeak() {
			t.Fatalf("%s: live %d + pooled %d > peak %d", step, live, pooled, m.GPUMemPeak())
		}
	}
	// One size after another, growing: every allocation misses the list
	// while the previous size sits on it.
	for i := 1; i <= 64; i++ {
		base := m.Alloc(GPU, int64(i*1000), "d")
		check(fmt.Sprintf("alloc %d", i))
		if err := m.Free(GPU, base); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("free %d", i))
	}
	// All 64 live at once, then freed, then half of them back.
	var bases []uint64
	for i := 1; i <= 64; i++ {
		bases = append(bases, m.Alloc(GPU, int64(i*1000), "d"))
		check(fmt.Sprintf("live alloc %d", i))
	}
	for i, b := range bases {
		if err := m.Free(GPU, b); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("live free %d", i+1))
	}
	if pooledBytes(t, m) != m.GPUMemPeak() {
		t.Errorf("freeing a working set at its peak pooled %d of %d bytes", m.pooled, m.GPUMemPeak())
	}
	for i := 2; i <= 64; i += 2 {
		m.Alloc(GPU, int64(i*1000), "d")
		check(fmt.Sprintf("realloc %d", i))
	}
	m.Alloc(GPU, 1<<20, "big")
	check("a size never seen, past the peak")
}

// TestMapCycleStopsAllocating: the unoptimized CGCM cycle — allocate the
// device copy, upload, launch, download, free — reuses one buffer for as
// long as it runs. At the parent every iteration made a new one.
func TestMapCycleStopsAllocating(t *testing.T) {
	const size = 64 << 10
	m := newM()
	host := m.Alloc(CPU, size, "h")
	cycle := func() {
		dev, err := m.AllocDevice(size, "dev:h")
		if err != nil {
			t.Fatal(err)
		}
		m.ChargeAllocGPU()
		if err := m.CopyHtoD(dev, host, size); err != nil {
			t.Fatal(err)
		}
		m.LaunchKernelAt("k", 0, 1, 1)
		if err := m.CopyDtoH(host, dev, size); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(GPU, dev); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the first iteration makes the buffer and the list
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 100; i++ {
		cycle()
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got >= size {
		t.Errorf("100 map/release cycles of a %d-byte unit allocated %d bytes, want less than one buffer", size, got)
	}
	if m.GPUMemPeak() != size || m.GPUMemUsed() != 0 {
		t.Errorf("used %d, peak %d after the loop, want 0 and %d", m.GPUMemUsed(), m.GPUMemPeak(), size)
	}
}

// logGov records the governor calls a machine makes.
type logGov struct {
	log   *[]string
	used  int64
	limit int64
}

func (g *logGov) Reserve(n int64) error {
	if g.used+n > g.limit {
		*g.log = append(*g.log, fmt.Sprintf("reserve %d denied", n))
		return fmt.Errorf("over quota")
	}
	g.used += n
	*g.log = append(*g.log, fmt.Sprintf("reserve %d", n))
	return nil
}

func (g *logGov) Release(n int64) {
	g.used -= n
	*g.log = append(*g.log, fmt.Sprintf("release %d", n))
}

// TestRecyclingInvisibleToDeviceModel runs a scripted allocate/free
// sequence under a capacity, a fault plan and a governor, and compares
// every simulated observable — bases, errors, used and peak bytes, governor
// calls, fault call indices, the clock — with the log the same script
// produced at the commit before recycling existed.
func TestRecyclingInvisibleToDeviceModel(t *testing.T) {
	m := newM()
	m.SetGPUCapacity(4096)
	spec, err := faultinject.ParseSpec("alloc@1+4+9")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(spec.NewPlan())
	var log []string
	m.SetMemGovernor(&logGov{log: &log, limit: 3000})

	live := map[string]uint64{}
	alloc := func(name string, size int64) {
		base, err := m.AllocDevice(size, name)
		if err != nil {
			log = append(log, fmt.Sprintf("alloc %s %d: %v", name, size, err))
		} else {
			live[name] = base
			log = append(log, fmt.Sprintf("alloc %s %d: +%#x", name, size, base-GPUBase))
		}
		log = append(log, fmt.Sprintf("  used %d peak %d gen %d now %.0fus faults %d",
			m.GPUMemUsed(), m.GPUMemPeak(), m.Gen(), m.clk.cpu*1e6, m.Stats().InjectedFaults))
	}
	free := func(name string) {
		err := m.Free(GPU, live[name])
		delete(live, name)
		log = append(log, fmt.Sprintf("free %s: %v", name, err))
		log = append(log, fmt.Sprintf("  used %d peak %d gen %d", m.GPUMemUsed(), m.GPUMemPeak(), m.Gen()))
	}
	alloc("a", 1000) // call 0
	alloc("b", 1000) // call 1: injected fault
	alloc("b", 1000) // call 2
	free("a")
	alloc("a", 1000) // call 3: takes a's old buffer, at a new base
	alloc("c", 1000) // call 4: injected fault
	alloc("c", 1000) // call 5: the governor denies (2016+1008 > 3000)
	free("b")
	alloc("c", 500) // call 6: a size the list does not hold
	alloc("d", 1000)
	free("a")
	free("c")
	free("d")
	alloc("e", 4000) // call 8: fits the capacity, not the quota
	alloc("f", 2000) // call 9: injected fault
	alloc("f", 2000)
	plain := m.Alloc(GPU, 1500, "plain") // not the governor's business
	log = append(log, fmt.Sprintf("plain: +%#x used %d peak %d", plain-GPUBase, m.GPUMemUsed(), m.GPUMemPeak()))
	alloc("g", 1000) // past the capacity (3504+1008 > 4096); the governor is not asked
	alloc("h", 500)  // fits both, takes c's old buffer
	if err := m.Free(GPU, plain); err != nil {
		t.Fatal(err)
	}
	free("f")
	free("h")
	log = append(log, fmt.Sprintf("alloc calls %d, injected %d", m.FaultPlan().Calls(faultinject.VerbAlloc), m.FaultPlan().Injected()))

	if got := strings.Join(log, "\n"); got != parentDeviceLog {
		t.Errorf("device model log differs from the parent's:\n%s", got)
	}
}

// parentDeviceLog is what TestRecyclingInvisibleToDeviceModel's script
// logged at the parent commit (2e2e155), where every device segment was a
// fresh make.
const parentDeviceLog = `reserve 1008
alloc a 1000: +0x0
  used 1008 peak 1008 gen 0 now 0us faults 0
alloc b 1000: injected transient alloc fault at call #1 (unit b): injected by fault plan
  used 1008 peak 1008 gen 0 now 10us faults 1
reserve 1008
alloc b 1000: +0x3f0
  used 2016 peak 2016 gen 0 now 10us faults 1
release 1008
free a: <nil>
  used 1008 peak 2016 gen 1
reserve 1008
alloc a 1000: +0x7e0
  used 2016 peak 2016 gen 1 now 10us faults 1
alloc c 1000: injected transient alloc fault at call #4 (unit c): injected by fault plan
  used 2016 peak 2016 gen 1 now 20us faults 2
reserve 1008 denied
alloc c 1000: device persistent alloc fault at call #0 (unit c): over quota
  used 2016 peak 2016 gen 1 now 20us faults 2
release 1008
free b: <nil>
  used 1008 peak 2016 gen 2
reserve 512
alloc c 500: +0xbd0
  used 1520 peak 2016 gen 2 now 20us faults 2
reserve 1008
alloc d 1000: +0xdd0
  used 2528 peak 2528 gen 2 now 20us faults 2
release 1008
free a: <nil>
  used 1520 peak 2528 gen 3
release 512
free c: <nil>
  used 1008 peak 2528 gen 4
release 1008
free d: <nil>
  used 0 peak 2528 gen 5
reserve 4000 denied
alloc e 4000: device persistent alloc fault at call #0 (unit e): over quota
  used 0 peak 2528 gen 5 now 20us faults 2
alloc f 2000: injected transient alloc fault at call #9 (unit f): injected by fault plan
  used 0 peak 2528 gen 5 now 30us faults 3
reserve 2000
alloc f 2000: +0x11c0
  used 2000 peak 2528 gen 5 now 30us faults 3
plain: +0x1990 used 3504 peak 3504
alloc g 1000: device persistent alloc fault at call #0 (unit g): device memory exhausted: 3504 bytes used of 4096, need 1008
  used 3504 peak 3504 gen 5 now 30us faults 3
reserve 512
alloc h 500: +0x1f70
  used 4016 peak 4016 gen 5 now 30us faults 3
release 2000
free f: <nil>
  used 512 peak 4016 gen 7
release 512
free h: <nil>
  used 0 peak 4016 gen 8
alloc calls 13, injected 3`
