package machine

import (
	"errors"
	"testing"

	"cgcm/internal/faultinject"
)

func newFaultMachine() *Machine { return New(DefaultCostModel()) }

func TestGPUMemAccounting(t *testing.T) {
	m := newFaultMachine()
	if m.GPUMemUsed() != 0 || m.GPUMemPeak() != 0 {
		t.Fatalf("fresh machine reports used=%d peak=%d", m.GPUMemUsed(), m.GPUMemPeak())
	}
	a := m.Alloc(GPU, 100, "a") // aligned up
	used1 := m.GPUMemUsed()
	if used1 < 100 {
		t.Fatalf("used %d < allocation size 100", used1)
	}
	b := m.Alloc(GPU, 4096, "b")
	used2 := m.GPUMemUsed()
	if used2 <= used1 {
		t.Fatalf("second allocation did not grow used: %d -> %d", used1, used2)
	}
	// CPU allocations never count against device memory.
	m.Alloc(CPU, 1<<20, "host")
	if m.GPUMemUsed() != used2 {
		t.Errorf("CPU allocation changed GPU used: %d != %d", m.GPUMemUsed(), used2)
	}
	if err := m.Free(GPU, a); err != nil {
		t.Fatal(err)
	}
	if m.GPUMemUsed() != used2-used1 {
		t.Errorf("free did not return bytes: used %d, want %d", m.GPUMemUsed(), used2-used1)
	}
	if m.GPUMemPeak() != used2 {
		t.Errorf("peak %d, want high-water mark %d", m.GPUMemPeak(), used2)
	}
	if err := m.Free(GPU, b); err != nil {
		t.Fatal(err)
	}
	if m.GPUMemUsed() != 0 {
		t.Errorf("all freed but used = %d", m.GPUMemUsed())
	}
}

func TestAllocDeviceCapacityOOM(t *testing.T) {
	m := newFaultMachine()
	m.SetGPUCapacity(8192)
	if _, err := m.AllocDevice(4096, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocDevice(4096, "b"); err != nil {
		t.Fatal(err)
	}
	_, err := m.AllocDevice(1, "c")
	if err == nil {
		t.Fatal("allocation past capacity succeeded")
	}
	if !errors.Is(err, faultinject.ErrOOM) {
		t.Errorf("capacity OOM does not match ErrOOM: %v", err)
	}
	var de *faultinject.DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("capacity OOM is not a *DeviceError: %T", err)
	}
	if de.Injected {
		t.Error("genuine capacity OOM reported as injected")
	}
	if de.Unit != "c" {
		t.Errorf("OOM unit %q, want %q", de.Unit, "c")
	}
	if de.Transient {
		t.Error("capacity OOM reported transient; retry without eviction cannot succeed")
	}
}

func TestAllocDeviceUnlimitedByDefault(t *testing.T) {
	m := newFaultMachine()
	for i := 0; i < 64; i++ {
		if _, err := m.AllocDevice(1<<20, "big"); err != nil {
			t.Fatalf("allocation %d failed on unlimited device: %v", i, err)
		}
	}
}

func TestDecideFaultChargesTimeAndCounts(t *testing.T) {
	m := newFaultMachine()
	spec, err := faultinject.ParseSpec("htod@0+2")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(spec.NewPlan())
	before := m.clk.cpu
	if de := m.DecideFault(faultinject.VerbHtoD, "u"); de == nil {
		t.Fatal("call 0 listed in spec did not fault")
	} else {
		if !de.Transient || !de.Injected {
			t.Errorf("at-index fault should be transient+injected: %+v", de)
		}
		if !errors.Is(de, faultinject.ErrTransfer) {
			t.Errorf("htod fault does not match ErrTransfer: %v", de)
		}
	}
	if m.clk.cpu <= before {
		t.Error("injected fault charged no driver-call time")
	}
	if de := m.DecideFault(faultinject.VerbHtoD, "u"); de != nil {
		t.Errorf("call 1 not in spec faulted: %v", de)
	}
	if de := m.DecideFault(faultinject.VerbHtoD, "u"); de == nil {
		t.Error("call 2 listed in spec did not fault")
	}
	if got := m.Stats().InjectedFaults; got != 2 {
		t.Errorf("InjectedFaults = %d, want 2", got)
	}
}

func TestInjectedAllocFaultBeforeCapacityCheck(t *testing.T) {
	m := newFaultMachine()
	spec, err := faultinject.ParseSpec("fail=alloc@0")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(spec.NewPlan())
	_, aerr := m.AllocDevice(16, "x")
	if aerr == nil {
		t.Fatal("persistently failed allocator succeeded")
	}
	var de *faultinject.DeviceError
	if !errors.As(aerr, &de) || !de.Injected || de.Transient {
		t.Errorf("want persistent injected alloc fault, got %v", aerr)
	}
	if m.GPUMemUsed() != 0 {
		t.Errorf("failed allocation leaked %d bytes", m.GPUMemUsed())
	}
}

func TestPenaltyAdvancesWallNotCompute(t *testing.T) {
	m := newFaultMachine()
	before := m.Stats()
	m.Penalty(0.001)
	after := m.Stats()
	if after.PenaltyTime-before.PenaltyTime != 0.001 {
		t.Errorf("PenaltyTime grew by %g, want 0.001", after.PenaltyTime-before.PenaltyTime)
	}
	if after.CPUTime != before.CPUTime {
		t.Error("penalty charged compute time")
	}
	if m.clk.cpu != 0.001 {
		t.Errorf("penalty did not advance the clock: %g", m.clk.cpu)
	}
	m.Penalty(0) // no-op, must not panic or move time
	if m.clk.cpu != 0.001 {
		t.Error("zero penalty moved the clock")
	}
}

func TestRescueCopyDtoHIsSlowButCounted(t *testing.T) {
	m := newFaultMachine()
	host := m.Alloc(CPU, 4096, "host")
	dev := m.Alloc(GPU, 4096, "dev")
	for i := int64(0); i < 4096/8; i++ {
		if err := m.Store(dev+uint64(i*8), 8, uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	// Time a normal copy of the same size on a second machine to compare.
	m2 := newFaultMachine()
	h2 := m2.Alloc(CPU, 4096, "host")
	d2 := m2.Alloc(GPU, 4096, "dev")
	if err := m2.CopyDtoH(h2, d2, 4096); err != nil {
		t.Fatal(err)
	}
	normal := m2.clk.cpu

	if err := m.RescueCopyDtoH(host, dev, 4096); err != nil {
		t.Fatal(err)
	}
	if m.clk.cpu <= normal {
		t.Errorf("rescue copy (%.9f) not slower than normal DtoH (%.9f)", m.clk.cpu, normal)
	}
	st := m.Stats()
	if st.RescueCopies != 1 || st.NumDtoH != 1 || st.BytesDtoH != 4096 {
		t.Errorf("rescue accounting wrong: %+v", st)
	}
	// Data must have landed intact.
	for i := int64(0); i < 4096/8; i++ {
		v, err := m.Load(host+uint64(i*8), 8)
		if err != nil || v != uint64(i)*3 {
			t.Fatalf("rescued byte run corrupt at %d: %d, %v", i, v, err)
		}
	}
}

func TestRescueCopyIgnoresFaultPlan(t *testing.T) {
	m := newFaultMachine()
	spec, err := faultinject.ParseSpec("fail=dtoh@0")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(spec.NewPlan())
	host := m.Alloc(CPU, 64, "host")
	dev := m.Alloc(GPU, 64, "dev")
	if err := m.CopyDtoH(host, dev, 64); err == nil {
		t.Fatal("normal DtoH should fail under fail=dtoh@0")
	}
	if err := m.RescueCopyDtoH(host, dev, 64); err != nil {
		t.Errorf("rescue channel consulted the fault plan: %v", err)
	}
}

func TestRunKernelOnCPUAccounting(t *testing.T) {
	m := newFaultMachine()
	m.RunKernelOnCPUAt("k", 3, 1000)
	st := m.Stats()
	if st.FallbackKernels != 1 || st.FallbackOps != 1000 {
		t.Errorf("fallback accounting: kernels=%d ops=%d", st.FallbackKernels, st.FallbackOps)
	}
	if st.NumKernels != 0 {
		t.Error("CPU-fallback execution counted as a GPU kernel")
	}
	if st.CPUOps != 1000 {
		t.Errorf("fallback ops not charged to CPU: %d", st.CPUOps)
	}
}
