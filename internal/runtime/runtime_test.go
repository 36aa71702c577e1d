package runtime

import (
	"strings"
	"testing"

	"cgcm/internal/machine"
)

func newRT() (*Runtime, *machine.Machine) {
	m := machine.New(machine.DefaultCostModel())
	return New(m), m
}

func TestMapCopiesAndTranslates(t *testing.T) {
	rt, m := newRT()
	base := rt.Malloc(64)
	m.Store(base+16, 8, 42)

	// Map an interior pointer: translation preserves the offset
	// (Algorithm 1 returns devptr + (ptr - base)).
	dev, err := rt.Map(base + 16)
	if err != nil {
		t.Fatal(err)
	}
	if machine.SpaceOf(dev) != machine.GPU {
		t.Fatalf("mapped pointer %#x not in GPU space", dev)
	}
	v, err := m.Load(dev, 8)
	if err != nil || v != 42 {
		t.Fatalf("device copy wrong: %d, %v", v, err)
	}
	// Aliases map to the same device unit.
	dev2, err := rt.Map(base + 24)
	if err != nil {
		t.Fatal(err)
	}
	if dev2-dev != 8 {
		t.Errorf("aliasing pointers diverged: %#x vs %#x", dev, dev2)
	}
	st := rt.Stats()
	if st.HtoDCopies != 1 {
		t.Errorf("HtoD copies = %d, want 1 (second map is a residency hit)", st.HtoDCopies)
	}
	if st.ResidencySkips != 1 {
		t.Errorf("residency skips = %d", st.ResidencySkips)
	}
}

func TestUnmapEpochSemantics(t *testing.T) {
	rt, m := newRT()
	base := rt.Malloc(8)
	m.Store(base, 8, 1)
	dev, _ := rt.Map(base)

	// No kernel has launched: unmap must not copy (epoch is current).
	if err := rt.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().DtoHCopies != 0 {
		t.Error("unmap copied without a kernel launch")
	}

	// GPU writes, epoch advances: unmap copies once, second unmap skips.
	rt.KernelLaunched()
	m.Store(dev, 8, 99)
	if err := rt.Unmap(base); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(base, 8)
	if v != 99 {
		t.Errorf("CPU copy not updated: %d", v)
	}
	if err := rt.Unmap(base); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.DtoHCopies != 1 {
		t.Errorf("DtoH copies = %d, want 1 ('at most once per epoch')", st.DtoHCopies)
	}
	if st.EpochSkips == 0 {
		t.Error("no epoch skips recorded")
	}
}

func TestReleaseFreesAtZero(t *testing.T) {
	rt, m := newRT()
	base := rt.Malloc(8)
	dev, _ := rt.Map(base)
	rt.Map(base) // refcount 2
	if err := rt.Release(base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(dev, 8); err != nil {
		t.Error("device memory freed while refcount positive")
	}
	if err := rt.Release(base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(dev, 8); err == nil {
		t.Error("device memory not freed at refcount zero")
	}
	// Unbalanced release is an error.
	if err := rt.Release(base); err == nil {
		t.Error("unbalanced release succeeded")
	}
}

func TestRemapAfterRelease(t *testing.T) {
	rt, m := newRT()
	base := rt.Malloc(8)
	m.Store(base, 8, 5)
	d1, _ := rt.Map(base)
	rt.Release(base)
	m.Store(base, 8, 6) // CPU modifies while unmapped
	d2, err := rt.Map(base)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(d2, 8)
	if v != 6 {
		t.Errorf("remap copied stale data: %d", v)
	}
	_ = d1
	rt.Release(base)
}

func TestGlobalsUseNamedRegions(t *testing.T) {
	rt, m := newRT()
	host := m.Alloc(machine.CPU, 16, "global g")
	devRegion := m.Alloc(machine.GPU, 16, "devglobal g")
	rt.DeclareGlobal("g", host, 16, false, devRegion)
	m.Store(host, 8, 7)

	dev, err := rt.Map(host + 8)
	if err != nil {
		t.Fatal(err)
	}
	if dev != devRegion+8 {
		t.Errorf("global mapped to %#x, want named region %#x+8", dev, devRegion)
	}
	// Globals are never freed by release.
	rt.Release(host)
	if _, err := m.Load(devRegion, 8); err != nil {
		t.Error("release freed a global's named region")
	}
	// And cannot be freed at all.
	if err := rt.Free(host); err == nil {
		t.Error("free of a global succeeded")
	}
}

func TestReadOnlyGlobalsSkipCopyback(t *testing.T) {
	rt, m := newRT()
	host := m.Alloc(machine.CPU, 8, "global r")
	dev := m.Alloc(machine.GPU, 8, "devglobal r")
	rt.DeclareGlobal("r", host, 8, true, dev)
	rt.Map(host)
	rt.KernelLaunched()
	if err := rt.Unmap(host); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().DtoHCopies != 0 {
		t.Error("read-only global copied back")
	}
}

func TestMapArrayDoubleIndirection(t *testing.T) {
	rt, m := newRT()
	// Build an array of 3 pointers to distinct heap strings.
	arr := rt.Malloc(24)
	var elems [3]uint64
	for i := range elems {
		e := rt.Malloc(8)
		m.Store(e, 8, uint64(100+i))
		elems[i] = e
		m.Store(arr+uint64(i*8), 8, e)
	}
	devArr, err := rt.MapArray(arr)
	if err != nil {
		t.Fatal(err)
	}
	// Each device element must be a GPU pointer to the translated unit.
	for i := range elems {
		dp, err := m.Load(devArr+uint64(i*8), 8)
		if err != nil {
			t.Fatal(err)
		}
		if machine.SpaceOf(dp) != machine.GPU {
			t.Fatalf("element %d not translated: %#x", i, dp)
		}
		v, err := m.Load(dp, 8)
		if err != nil || v != uint64(100+i) {
			t.Fatalf("element %d device contents = %d, %v", i, v, err)
		}
	}
	// Write back through the GPU and unmap.
	dp0, _ := m.Load(devArr, 8)
	rt.KernelLaunched()
	m.Store(dp0, 8, 555)
	if err := rt.UnmapArray(arr); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(elems[0], 8)
	if v != 555 {
		t.Errorf("unmapArray did not update element unit: %d", v)
	}
	// The CPU pointer array must NOT have been overwritten with GPU
	// pointers.
	p0, _ := m.Load(arr, 8)
	if p0 != elems[0] {
		t.Errorf("unmapArray corrupted the CPU pointer array: %#x", p0)
	}
	if err := rt.ReleaseArray(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(devArr, 8); err == nil {
		t.Error("shadow array not freed at refcount zero")
	}
}

func TestMapArrayRefcountBalance(t *testing.T) {
	rt, m := newRT()
	arr := rt.Malloc(8)
	e := rt.Malloc(8)
	m.Store(arr, 8, e)

	d1, err := rt.MapArray(arr)
	if err != nil {
		t.Fatal(err)
	}
	// Re-map while resident (the map-promotion interior pattern).
	d2, err := rt.MapArray(arr)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("resident mapArray moved the shadow: %#x vs %#x", d1, d2)
	}
	if err := rt.ReleaseArray(arr); err != nil {
		t.Fatal(err)
	}
	// After one release the element unit must still be live.
	dp, _ := m.Load(d1, 8)
	if _, err := m.Load(dp, 8); err != nil {
		t.Error("element unit freed while array still mapped (refcount bug)")
	}
	if err := rt.ReleaseArray(arr); err != nil {
		t.Fatal(err)
	}
}

func TestHeapWrappers(t *testing.T) {
	rt, m := newRT()
	p, err := rt.Calloc(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(p+24, 8)
	if v != 0 {
		t.Error("calloc not zeroed")
	}
	if _, err := rt.Calloc(1<<32, 1<<32); err == nil {
		t.Error("calloc overflow not detected")
	}
	if _, err := rt.Calloc(-1, 8); err == nil {
		t.Error("calloc negative count not detected")
	}
	m.Store(p, 8, 11)
	q, err := rt.Realloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = m.Load(q, 8)
	if v != 11 {
		t.Error("realloc lost contents")
	}
	if rt.Lookup(p) != nil {
		t.Error("realloc left the old unit registered")
	}
	if err := rt.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(q); err == nil {
		t.Error("double free succeeded")
	}
}

func TestLookupGranularity(t *testing.T) {
	rt, _ := newRT()
	a := rt.Malloc(32)
	b := rt.Malloc(32)
	if info := rt.Lookup(a + 31); info == nil || info.Base != a {
		t.Error("interior lookup failed")
	}
	// One past the end belongs to nothing (or the next unit, never a).
	if info := rt.Lookup(a + 32); info != nil && info.Base == a {
		t.Error("lookup past end returned the unit")
	}
	_ = b
}

func TestErrorsNameOperations(t *testing.T) {
	rt, _ := newRT()
	_, err := rt.Map(0xdead0000)
	if err == nil || !strings.Contains(err.Error(), "map") {
		t.Errorf("map of untracked pointer: %v", err)
	}
	if err := rt.Unmap(0xdead0000); err == nil {
		t.Error("unmap of untracked pointer succeeded")
	}
	if err := rt.Free(0xdead0000); err == nil {
		t.Error("free of untracked pointer succeeded")
	}
}

func TestDeclareAllocaExpiry(t *testing.T) {
	rt, m := newRT()
	base := m.Alloc(machine.CPU, 16, "alloca")
	rt.DeclareAlloca(base, 16, "alloca f")
	if rt.Lookup(base) == nil {
		t.Fatal("alloca not tracked")
	}
	rt.RemoveAlloca(base)
	if rt.Lookup(base) != nil {
		t.Error("alloca registration did not expire")
	}
}

// TestLedgerRowKeepsAllocationLine: a function called 1000 times allocates
// a stack unit and a heap unit on lines 3 and 4 of its body, then maps,
// launches on and unmaps both from line 7. Each call's units get their
// own ledger rows, and every row carries the line the unit was allocated
// on — the AllocInfo's, not the line current when it communicated.
func TestLedgerRowKeepsAllocationLine(t *testing.T) {
	rt, m := newRT()
	const calls = 1000
	for i := 0; i < calls; i++ {
		rt.Line = 3
		s := m.Alloc(machine.CPU, 64, "alloca f")
		rt.DeclareAlloca(s, 64, "alloca f")
		rt.Line = 4
		h := rt.Malloc(64)
		rt.Line = 7
		for _, p := range []uint64{s, h} {
			if _, err := rt.Map(p); err != nil {
				t.Fatal(err)
			}
		}
		rt.KernelLaunched()
		for _, p := range []uint64{s, h} {
			if err := rt.Unmap(p); err != nil {
				t.Fatal(err)
			}
			if err := rt.Release(p); err != nil {
				t.Fatal(err)
			}
		}
		rt.RemoveAlloca(s)
		if err := rt.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	l := rt.Ledger.Ledger()
	if len(l.Units) != 2*calls {
		t.Fatalf("ledger has %d rows, want %d", len(l.Units), 2*calls)
	}
	want := map[string]int{"alloca f": 3, "malloc": 4}
	for _, u := range l.Units {
		if u.Line != want[u.Name] {
			t.Fatalf("%s@%#x: line %d, want %d", u.Name, u.Base, u.Line, want[u.Name])
		}
	}
}

// TestFreeForgetsLastTransfer: the per-unit ordering entry an async copy
// leaves behind dies with the unit. Host addresses are never reused, so
// an entry that outlives its unit can only leak.
func TestFreeForgetsLastTransfer(t *testing.T) {
	rt, m := newRT()
	rt.EnableAsync()
	const n = 32
	for i := 0; i < n; i++ {
		p := rt.Malloc(256)
		if i%2 == 1 {
			// Every other unit leaves through realloc's free of the old unit.
			q, err := rt.Realloc(p, 512)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.MapAsync(p); err == nil {
				t.Fatal("map of a reallocated-away unit succeeded")
			}
			p = q
		}
		if _, err := rt.MapAsync(p); err != nil {
			t.Fatal(err)
		}
		rt.KernelLaunched()
		m.LaunchKernelAt("k", 0, 1, 1, rt.TakeLaunchWaits()...)
		if err := rt.UnmapAsync(p); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(p); err != nil {
			t.Fatal(err)
		}
		if len(rt.lastXfer) != 1 {
			t.Fatalf("unit %d: %d ordering entries while one unit has copied, want 1", i, len(rt.lastXfer))
		}
		if err := rt.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// A stack unit leaves through RemoveAlloca.
	s := m.Alloc(machine.CPU, 64, "alloca f")
	rt.DeclareAlloca(s, 64, "alloca f")
	if _, err := rt.MapAsync(s); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(s); err != nil {
		t.Fatal(err)
	}
	rt.RemoveAlloca(s)
	m.Sync()
	if len(rt.lastXfer) != 0 {
		t.Errorf("%d ordering entries left after every unit was freed, want 0", len(rt.lastXfer))
	}
}

// TestDeviceCopyNameBuiltOnce: the label of a unit's device copies reaches
// DeviceError.Unit, fault events and traces, so it is still "dev:"+Name —
// and it is the same string on every map of the unit, not a new one.
func TestDeviceCopyNameBuiltOnce(t *testing.T) {
	rt, m := newRT()
	p := rt.Malloc(64)
	var names []string
	for i := 0; i < 3; i++ {
		dev, err := rt.Map(p)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m.FindSegment(dev).Name)
		if err := rt.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		if n != "dev:malloc" {
			t.Errorf("device copy named %q, want %q", n, "dev:malloc")
		}
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := rt.Map(p); err != nil {
			t.Fatal(err)
		}
		if err := rt.Release(p); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		// The one object left is the device copy's Segment, which is never
		// recycled (a stale holder must not see another unit through it).
		t.Errorf("a map/release pair allocated %v objects, want 1 (the Segment)", a)
	}
}
