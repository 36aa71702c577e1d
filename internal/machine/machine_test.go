package machine

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

func newM() *Machine { return New(DefaultCostModel()) }

func TestAllocLoadStore(t *testing.T) {
	m := newM()
	base := m.Alloc(CPU, 64, "buf")
	if base == 0 {
		t.Fatal("zero base")
	}
	if err := m.Store(base+8, 8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(base+8, 8)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("Load = %#x, %v", v, err)
	}
	// Byte access and little-endian layout.
	if err := m.Store(base, 8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b0, _ := m.Load(base, 1)
	b7, _ := m.Load(base+7, 1)
	if b0 != 0x08 || b7 != 0x01 {
		t.Errorf("little-endian violated: b0=%#x b7=%#x", b0, b7)
	}
}

func TestZeroInitialized(t *testing.T) {
	m := newM()
	base := m.Alloc(CPU, 16, "z")
	v, _ := m.Load(base, 8)
	if v != 0 {
		t.Errorf("fresh memory = %#x", v)
	}
}

func TestSpaces(t *testing.T) {
	m := newM()
	c := m.Alloc(CPU, 8, "c")
	g := m.Alloc(GPU, 8, "g")
	if SpaceOf(c) != CPU || SpaceOf(g) != GPU {
		t.Fatalf("space classification wrong: %#x %#x", c, g)
	}
}

func TestFaults(t *testing.T) {
	m := newM()
	base := m.Alloc(CPU, 16, "buf")
	// Unmapped.
	if _, err := m.Load(0x42, 8); err == nil {
		t.Error("null-ish load succeeded")
	}
	// Past the end.
	if _, err := m.Load(base+16, 8); err == nil {
		t.Error("load past end succeeded")
	}
	// Straddling the end.
	if err := m.Store(base+12, 8, 1); err == nil {
		t.Error("straddling store succeeded")
	}
	// After free.
	if err := m.Free(CPU, base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(base, 8); err == nil {
		t.Error("use-after-free load succeeded")
	}
	// Double free.
	if err := m.Free(CPU, base); err == nil {
		t.Error("double free succeeded")
	}
	// Fault message names the unit.
	big := m.Alloc(CPU, 8, "named-unit")
	_, err := m.Load(big+4, 8)
	if err == nil || !strings.Contains(err.Error(), "named-unit") {
		t.Errorf("fault lacks unit name: %v", err)
	}
}

func TestFindSegment(t *testing.T) {
	m := newM()
	a := m.Alloc(CPU, 32, "a")
	b := m.Alloc(CPU, 32, "b")
	if s := m.FindSegment(a + 31); s == nil || s.Base != a {
		t.Error("interior address not resolved")
	}
	if s := m.FindSegment(b); s == nil || s.Base != b {
		t.Error("base address not resolved")
	}
	m.Free(CPU, a)
	if s := m.FindSegment(a); s != nil {
		t.Error("freed segment still found")
	}
}

func TestTransfersMoveBytes(t *testing.T) {
	m := newM()
	c := m.Alloc(CPU, 16, "c")
	g := m.Alloc(GPU, 16, "g")
	m.Store(c, 8, 1234)
	if err := m.CopyHtoD(g, c, 16); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(g, 8)
	if v != 1234 {
		t.Errorf("HtoD did not copy: %d", v)
	}
	m.Store(g+8, 8, 777)
	if err := m.CopyDtoH(c, g, 16); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Load(c+8, 8)
	if v != 777 {
		t.Errorf("DtoH did not copy: %d", v)
	}
	st := m.Stats()
	if st.BytesHtoD != 16 || st.BytesDtoH != 16 || st.NumHtoD != 1 || st.NumDtoH != 1 {
		t.Errorf("transfer stats wrong: %+v", st)
	}
}

func TestTimingCyclicVsOverlap(t *testing.T) {
	// A DtoH after a kernel must wait for the kernel (cyclic); a CPU-only
	// sequence runs concurrently with the GPU (acyclic overlap).
	cyclic := newM()
	cyclic.LaunchKernelAt("k", 0, 1_000_000, 10_000)
	cyclic.ChargeTransferUnit(trace.KindDtoH, 8, "")
	cyc := cyclic.Stats().Wall

	overlap := newM()
	overlap.LaunchKernelAt("k", 0, 1_000_000, 10_000)
	overlap.CPUOps(1_000_000) // CPU work hides the kernel
	ovl := overlap.Stats().Wall

	kernelOnly := newM()
	kernelOnly.LaunchKernelAt("k", 0, 1_000_000, 10_000)
	kernelOnly.Sync()
	ko := kernelOnly.Stats().Wall

	if cyc <= ko {
		t.Errorf("cyclic wall %.3g not greater than kernel-only %.3g", cyc, ko)
	}
	cpuOnly := float64(1_000_000) * DefaultCostModel().CPUOp
	if ovl > ko+cpuOnly {
		t.Errorf("no overlap: wall %.3g > kernel %.3g + cpu %.3g", ovl, ko, cpuOnly)
	}
	// With enough CPU work the kernel is fully hidden.
	if ovl < cpuOnly {
		t.Errorf("wall %.3g below CPU time %.3g", ovl, cpuOnly)
	}
}

func TestKernelCriticalPath(t *testing.T) {
	m := newM()
	// One thread doing all the work: critical path, not throughput.
	m.LaunchKernelAt("serial", 0, 1000, 1000)
	m.Sync()
	wantMin := float64(1000) * DefaultCostModel().GPUOp
	if m.Stats().GPUTime < wantMin {
		t.Errorf("GPU time %.3g below critical path %.3g", m.Stats().GPUTime, wantMin)
	}
	// Many threads: throughput bound.
	m2 := newM()
	m2.LaunchKernelAt("wide", 0, 480_000, 1)
	m2.Sync()
	throughput := float64(480_000) * DefaultCostModel().GPUOp / float64(DefaultCostModel().GPUCores)
	if got := m2.Stats().GPUTime; got < throughput {
		t.Errorf("GPU time %.3g below throughput bound %.3g", got, throughput)
	}
}

func TestTrace(t *testing.T) {
	// No log is kept unless asked for.
	bare := newM()
	bare.LaunchKernelAt("k", 0, 1600, 100)
	if bare.KeepsLog() || bare.Log() != nil {
		t.Fatalf("machine kept %d events without KeepLog", len(bare.Log()))
	}
	m := newM()
	m.KeepLog()
	m.CPUOps(1000)
	m.LaunchKernelAt("k", 0, 1600, 100)
	m.ChargeTransferUnit(trace.KindDtoH, 64, "")
	kinds := map[trace.Kind]int{}
	for _, s := range trace.Spans(m.Log()) {
		kinds[s.Kind]++
		if s.End < s.Start {
			t.Errorf("span %v ends before start", s)
		}
	}
	if kinds[trace.KindCPU] == 0 || kinds[trace.KindKernel] == 0 || kinds[trace.KindDtoH] == 0 {
		t.Errorf("trace missing kinds: %v", kinds)
	}
}

// TestQuickMemoryRoundTrip property: any stored word reads back.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := newM()
	base := m.Alloc(CPU, 4096, "q")
	f := func(off uint16, val uint64) bool {
		addr := base + uint64(off%4088)
		if err := m.Store(addr, 8, val); err != nil {
			return false
		}
		got, err := m.Load(addr, 8)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickWallMonotonic property: every operation advances (or keeps)
// the clock, never rewinds it.
func TestQuickWallMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newM()
		last := 0.0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				m.CPUOps(int64(op))
			case 1:
				m.LaunchKernelAt("k", 0, int64(op)*10, int64(op))
			case 2:
				m.ChargeTransferUnit(trace.KindHtoD, int64(op), "")
			case 3:
				m.Sync()
			}
			w := m.Stats().Wall
			if w < last {
				return false
			}
			last = w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAllocRefusesWhatCannotFit: a size larger than what is left of a
// space's address range is refused before any memory is requested — it
// used to reach make (and panic), or push the bump pointer into the
// neighbouring space. The refusal changes nothing: the next allocation
// gets the address it would have had.
func TestAllocRefusesWhatCannotFit(t *testing.T) {
	for _, space := range []Space{CPU, GPU} {
		m := newM()
		before := m.Alloc(space, 8, "before")
		for _, size := range []int64{1 << 62, int64(GPUBase), int64(GPUScratchBase - GPUBase)} {
			if got := m.Alloc(space, size, "huge"); got != 0 {
				t.Errorf("%s: Alloc(%#x) = %#x, want refusal", space, size, got)
			}
		}
		after := m.Alloc(space, 8, "after")
		if after != before+16 || SpaceOf(after) != space {
			t.Errorf("%s: allocation after the refusals at %#x, want %#x", space, after, before+16)
		}
		if space == GPU && m.GPUMemUsed() != 32 {
			t.Errorf("refused device allocations counted as used memory: %d", m.GPUMemUsed())
		}
	}
	// Reserve, which takes a promoted local's address range, refuses what
	// Alloc refuses, takes the range Alloc would and makes no segment.
	m := newM()
	before := m.Alloc(CPU, 8, "before")
	for _, size := range []int64{1 << 62, int64(GPUBase)} {
		if got := m.Reserve(size); got != 0 {
			t.Errorf("Reserve(%#x) = %#x, want refusal", size, got)
		}
	}
	if r := m.Reserve(8); r != before+16 || m.FindSegment(r) != nil {
		t.Errorf("Reserve(8) = %#x (segment %v), want %#x and no segment", r, m.FindSegment(r), before+16)
	}
	if after := m.Alloc(CPU, 8, "after"); after != before+32 {
		t.Errorf("allocation after the reservation at %#x, want %#x", after, before+32)
	}
	_, err := m.AllocDevice(1<<62, "huge")
	var de *faultinject.DeviceError
	if !errors.As(err, &de) || de.Verb != faultinject.VerbAlloc || de.Injected {
		t.Fatalf("AllocDevice(1<<62) = %v, want a device alloc failure", err)
	}
}
