package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/remarks"
	"cgcm/internal/trace"
)

// triVec streams three separately-malloc'd vectors through GPU loops in
// two passes, so a capacity-limited device has to evict the
// least-recently-used unit to make room and re-upload it on the second
// pass. Each vector is 512 floats = 4096 bytes.
const triVec = `
int main() {
	int n = 512;
	float *a = (float*)malloc(n * sizeof(float));
	float *b = (float*)malloc(n * sizeof(float));
	float *c = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) a[i] = (float)i;
	for (int i = 0; i < n; i++) b[i] = (float)(i * 2);
	for (int i = 0; i < n; i++) c[i] = (float)(i * 3);
	for (int pass = 0; pass < 2; pass++) {
		for (int t = 0; t < 3; t++) {
			for (int i = 0; i < n; i++) a[i] = a[i] * 1.5 + 1.0;
		}
		for (int t = 0; t < 3; t++) {
			for (int i = 0; i < n; i++) b[i] = b[i] * 0.5 + 2.0;
		}
		for (int t = 0; t < 3; t++) {
			for (int i = 0; i < n; i++) c[i] = c[i] + a[i] * 0.25;
		}
	}
	float sum = 0.0;
	for (int i = 0; i < n; i++) sum += a[i] + b[i] + c[i];
	print_float(sum / 1000000.0);
	free(a);
	free(b);
	free(c);
	return 0;
}`

// mustSpec parses a fault spec or fails the test.
func mustSpec(t *testing.T, text string) *faultinject.Spec {
	t.Helper()
	s, err := faultinject.ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", text, err)
	}
	return s
}

// faultFree runs the program once without faults to establish the
// reference output the resilience ladder must reproduce bit-for-bit.
func faultFree(t *testing.T, name, src string) *core.Report {
	t.Helper()
	return compileRun(t, name, src, core.Options{Strategy: core.CGCMOptimized})
}

// TestOOMAtEverySite kills the device allocator persistently at every
// call index in turn. Wherever the OOM lands — first Map, mid-run,
// or past the last allocation — the output must match the fault-free
// run exactly.
func TestOOMAtEverySite(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	for k := 0; k < 8; k++ {
		spec := mustSpec(t, fmt.Sprintf("fail=alloc@%d", k))
		rep := compileRun(t, "trivec.c", triVec, core.Options{
			Strategy:  core.CGCMOptimized,
			FaultSpec: spec,
		})
		if rep.Output != base.Output || rep.Exit != base.Exit {
			t.Errorf("fail=alloc@%d: output diverged:\n got %q\nwant %q", k, rep.Output, base.Output)
		}
		// An OOM before the last device allocation must have tripped the
		// degradation ladder; the program still completes via CPU fallback.
		if rep.Stats.InjectedFaults > 0 && !rep.RTStats.Degraded {
			t.Errorf("fail=alloc@%d: %d faults injected but runtime never degraded",
				k, rep.Stats.InjectedFaults)
		}
		if rep.RTStats.Degraded && rep.Stats.FallbackKernels == 0 && rep.Stats.NumKernels > 0 {
			t.Errorf("fail=alloc@%d: degraded but no kernels ran on the CPU", k)
		}
	}
}

// TestTransientTransferFaults injects a coin-flip fault on every
// transfer in both directions. Bounded retry must absorb all of them:
// identical output, retries recorded, and (for this seed) no
// degradation.
func TestTransientTransferFaults(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	rep := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:  core.CGCMOptimized,
		FaultSpec: mustSpec(t, "seed=7,htod=0.5,dtoh=0.5"),
	})
	if rep.Output != base.Output || rep.Exit != base.Exit {
		t.Fatalf("transient transfer faults changed output:\n got %q\nwant %q", rep.Output, base.Output)
	}
	if rep.Stats.InjectedFaults == 0 {
		t.Fatal("spec injected no faults; test is vacuous")
	}
	if rep.RTStats.Retries == 0 {
		t.Errorf("faults injected (%d) but no retries recorded", rep.Stats.InjectedFaults)
	}
	if rep.Stats.Wall <= base.Stats.Wall {
		t.Errorf("faulted wall %.9f not slower than fault-free %.9f (retries are free?)",
			rep.Stats.Wall, base.Stats.Wall)
	}
}

// TestZeroCapacityFallsBackToCPU gives the device essentially no
// memory. The very first Map cannot allocate, nothing is evictable, so
// the runtime must degrade to CPU fallback — and still produce the
// fault-free output.
func TestZeroCapacityFallsBackToCPU(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	rep := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:    core.CGCMOptimized,
		GPUMemBytes: 1,
	})
	if rep.Output != base.Output || rep.Exit != base.Exit {
		t.Fatalf("zero-capacity output diverged:\n got %q\nwant %q", rep.Output, base.Output)
	}
	if !rep.RTStats.Degraded {
		t.Fatal("1-byte device did not degrade to CPU fallback")
	}
	if rep.Stats.FallbackKernels == 0 {
		t.Error("degraded run executed no fallback kernels")
	}
	if rep.Stats.NumHtoD != 0 {
		t.Errorf("degraded-from-the-start run still did %d HtoD transfers", rep.Stats.NumHtoD)
	}
}

// TestCapacityEvictionStaysOnGPU sizes the device to hold two of the
// three vectors. Unoptimized CGCM unmaps after every launch, so every
// unit is an eviction candidate between kernels: the runtime must evict
// the LRU cached unit instead of degrading, re-uploading it when it is
// touched again.
func TestCapacityEvictionStaysOnGPU(t *testing.T) {
	base := compileRun(t, "trivec.c", triVec, core.Options{Strategy: core.CGCMUnoptimized})
	rep := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:    core.CGCMUnoptimized,
		GPUMemBytes: 8 * 1024,
	})
	if rep.Output != base.Output || rep.Exit != base.Exit {
		t.Fatalf("eviction run output diverged:\n got %q\nwant %q", rep.Output, base.Output)
	}
	if rep.RTStats.Evictions == 0 {
		t.Fatalf("capacity %d forced no evictions; test is vacuous", 8*1024)
	}
	if rep.RTStats.EvictionBytes == 0 {
		t.Error("evictions recorded but no bytes accounted")
	}
	// Eviction is the first rung of the ladder: the run should have
	// stayed on the GPU.
	if rep.RTStats.Degraded {
		t.Error("evictable pressure degraded the device; ladder skipped a rung")
	}
	if rep.Stats.NumKernels == 0 {
		t.Error("no kernels ran on the GPU despite staying resident")
	}
}

// TestPromotionPinsUnitsThenDegrades runs the same capacity under the
// optimized strategy: map promotion pins all three vectors across the
// outer loop, so nothing is evictable mid-promotion and the runtime
// must walk the whole ladder — evict what it can, then degrade — while
// still producing the exact fault-free output (the degrade path flushes
// dirty device data through the rescue channel).
func TestPromotionPinsUnitsThenDegrades(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	rep := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:    core.CGCMOptimized,
		GPUMemBytes: 8 * 1024,
	})
	if rep.Output != base.Output || rep.Exit != base.Exit {
		t.Fatalf("mid-run degrade output diverged:\n got %q\nwant %q", rep.Output, base.Output)
	}
	if !rep.RTStats.Degraded {
		t.Skip("runtime satisfied promoted working set without degrading; nothing to check")
	}
	if rep.Stats.FallbackKernels == 0 {
		t.Error("degraded mid-run but no kernels ran on the CPU")
	}
}

// TestPersistentFaultsDegradeLosslessly walks the persistent-failure
// scenarios: a dead launcher, a dead upload engine, and a dead download
// engine. Every one must end in CPU fallback with identical output —
// the dirty-data rescue channel makes degradation lossless even when
// normal DtoH is the thing that died.
func TestPersistentFaultsDegradeLosslessly(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	for _, spec := range []string{"fail=launch@0", "fail=launch@2", "fail=htod@1"} {
		rep := compileRun(t, "trivec.c", triVec, core.Options{
			Strategy:  core.CGCMOptimized,
			FaultSpec: mustSpec(t, spec),
		})
		if rep.Output != base.Output || rep.Exit != base.Exit {
			t.Errorf("%s: output diverged:\n got %q\nwant %q", spec, rep.Output, base.Output)
			continue
		}
		if !rep.RTStats.Degraded {
			t.Errorf("%s: persistent fault did not degrade the device", spec)
		}
	}
}

// TestPersistentDtoHUsesRescueChannel: a dead download engine is the one
// persistent fault that need not kill the device — every copyback can
// go over the slow reliable rescue channel instead, so the run stays on
// the GPU with identical output.
func TestPersistentDtoHUsesRescueChannel(t *testing.T) {
	base := faultFree(t, "trivec.c", triVec)
	rep := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:  core.CGCMOptimized,
		FaultSpec: mustSpec(t, "fail=dtoh@0"),
	})
	if rep.Output != base.Output || rep.Exit != base.Exit {
		t.Fatalf("dead-DtoH output diverged:\n got %q\nwant %q", rep.Output, base.Output)
	}
	if rep.RTStats.RescueCopies == 0 {
		t.Error("dead download engine but no rescue copies recorded")
	}
	if rep.RTStats.Degraded {
		t.Error("runtime degraded despite the rescue channel covering DtoH")
	}
	if rep.Stats.Wall <= base.Stats.Wall {
		t.Errorf("rescue-channel wall %.9f not slower than fault-free %.9f",
			rep.Stats.Wall, base.Stats.Wall)
	}
}

// TestResilienceAcrossStrategies checks the output invariant holds for
// the unoptimized strategy too — cyclic communication exercises the
// fault paths far more often than promoted acyclic communication.
func TestResilienceAcrossStrategies(t *testing.T) {
	for _, s := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized} {
		base := compileRun(t, "trivec.c", triVec, core.Options{Strategy: s})
		rep := compileRun(t, "trivec.c", triVec, core.Options{
			Strategy:    s,
			GPUMemBytes: 8 * 1024,
			FaultSpec:   mustSpec(t, "seed=3,htod=0.25,dtoh=0.25,alloc=0.1"),
		})
		if rep.Output != base.Output || rep.Exit != base.Exit {
			t.Errorf("%s: output diverged under faults:\n got %q\nwant %q", s, rep.Output, base.Output)
		}
	}
}

// TestFaultDeterminismAcrossWorkers is the soak: the same fault seed
// and capacity must yield byte-identical reports no matter how many
// worker goroutines execute kernel threads, because every fault
// decision happens on the goroutine driving the machine.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	opts := func(workers int) core.Options {
		return core.Options{
			Strategy:    core.CGCMOptimized,
			Workers:     workers,
			GPUMemBytes: 8 * 1024,
			FaultSpec:   mustSpec(t, "seed=11,htod=0.3,dtoh=0.3"),
			Remarks:     true,
		}
	}
	ref := compileRun(t, "trivec.c", triVec, opts(1))
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		rep := compileRun(t, "trivec.c", triVec, opts(w))
		if rep.Output != ref.Output || rep.Exit != ref.Exit {
			t.Errorf("workers=%d: output diverged from workers=1", w)
		}
		if rep.Stats != ref.Stats {
			t.Errorf("workers=%d: machine stats diverged:\n got %+v\nwant %+v", w, rep.Stats, ref.Stats)
		}
		if rep.RTStats != ref.RTStats {
			t.Errorf("workers=%d: runtime stats diverged:\n got %+v\nwant %+v", w, rep.RTStats, ref.RTStats)
		}
		if got, want := rep.Comm.String(), ref.Comm.String(); got != want {
			t.Errorf("workers=%d: communication ledger diverged:\n got %s\nwant %s", w, got, want)
		}
		if got, want := fmt.Sprintf("%v", rep.Remarks), fmt.Sprintf("%v", ref.Remarks); got != want {
			t.Errorf("workers=%d: remarks diverged:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestResilienceRemarks checks the fault model explains itself through
// the remarks engine: evictions produce device-oom remarks naming the
// unit, degradation produces a device-failure remark.
func TestResilienceRemarks(t *testing.T) {
	evict := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:    core.CGCMUnoptimized,
		GPUMemBytes: 8 * 1024,
		Remarks:     true,
	})
	if evict.RTStats.Evictions == 0 {
		t.Fatal("no evictions; remark test is vacuous")
	}
	if !hasReason(evict.Remarks, remarks.ReasonDeviceOOM) {
		t.Errorf("eviction run produced no device-oom remark; remarks: %v", evict.Remarks)
	}

	degraded := compileRun(t, "trivec.c", triVec, core.Options{
		Strategy:  core.CGCMOptimized,
		FaultSpec: mustSpec(t, "fail=launch@0"),
		Remarks:   true,
	})
	if !degraded.RTStats.Degraded {
		t.Fatal("fail=launch@0 did not degrade; remark test is vacuous")
	}
	if !hasReason(degraded.Remarks, remarks.ReasonDeviceFailure) {
		t.Errorf("degraded run produced no device-failure remark; remarks: %v", degraded.Remarks)
	}
}

func hasReason(rs []remarks.Remark, want remarks.Reason) bool {
	for _, r := range rs {
		if r.Reason == want {
			return true
		}
	}
	return false
}

// TestDefaultRunsUnaffected pins the zero-cost-when-disabled property:
// with no fault spec and no capacity, reports are identical to a run
// that never imported the fault model (counters all zero).
func TestDefaultRunsUnaffected(t *testing.T) {
	rep := faultFree(t, "trivec.c", triVec)
	if rep.Stats.InjectedFaults != 0 || rep.Stats.FallbackKernels != 0 ||
		rep.RTStats.Evictions != 0 || rep.RTStats.Retries != 0 ||
		rep.RTStats.RescueCopies != 0 || rep.RTStats.Degraded {
		t.Errorf("fault-free run shows resilience activity: machine %+v runtime %+v",
			rep.Stats, rep.RTStats)
	}
}

// helperLaunch calls a helper with promoted locals before each launch of
// a hand-written kernel, with no cgcm.* call in between, so the last line
// stamped before a launch is the helper's unless the launch stamps its
// own.
const helperLaunch = `
__global__ void addk(float *v, int k) {
	int i = tid();
	v[i] = v[i] + (float)k;
}
int scale(int x) {
	int y = x * 2;
	return y + 1;
}
int main() {
	int n = 256;
	float *a = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) a[i] = (float)i;
	float *d = (float*)cuda_malloc(n * sizeof(float));
	cuda_memcpy_h2d(d, a, n * sizeof(float));
	for (int t = 0; t < 4; t++) {
		int k = scale(t);
		addk<<<1, 256>>>(d, k);
	}
	cuda_memcpy_d2h(a, d, n * sizeof(float));
	print_float(a[7]);
	return 0;
}`

// TestLaunchFaultsCarryTheLaunchLine: the retries of a launch's transient
// faults are booked at the launch's source line, not at whatever line the
// runtime was last stamped with.
func TestLaunchFaultsCarryTheLaunchLine(t *testing.T) {
	for _, spec := range []string{"launch@1", "launch@0+3"} {
		prog, err := core.Compile("helper.c", helperLaunch, core.Options{Strategy: core.Sequential, FaultSpec: mustSpec(t, spec)})
		if err != nil {
			t.Fatal(err)
		}
		_, log, err := rawTimeline(prog)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for i, ev := range log {
			if ev.Kind != trace.EvRetry {
				continue
			}
			launch := 0
			for _, next := range log[i:] {
				if next.Kind == trace.EvKernel {
					launch = next.Line
					break
				}
			}
			if launch == 0 || ev.Line != launch {
				t.Errorf("%s: retry booked at line %d, the launch is at line %d", spec, ev.Line, launch)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no retry booked; the test is vacuous", spec)
		}
	}
}

// TestDegradingKeepsManualDeviceMemory: a program that moves its data
// with cuda_malloc and cuda_memcpy_* and loses the device at any launch
// prints what the fault-free run prints. The fallback kernels, the later
// copy and the free reach the cuda_malloc bytes through a host twin.
func TestDegradingKeepsManualDeviceMemory(t *testing.T) {
	for _, s := range []core.Strategy{core.Sequential, core.CGCMOptimized} {
		base := compileRun(t, "helper.c", helperLaunch, core.Options{Strategy: s})
		for k := 0; k < 4; k++ {
			spec := fmt.Sprintf("fail=launch@%d", k)
			rep := compileRun(t, "helper.c", helperLaunch, core.Options{Strategy: s, FaultSpec: mustSpec(t, spec)})
			if rep.Output != base.Output || rep.Exit != base.Exit {
				t.Errorf("%s %s: output %q exit %d, fault-free %q exit %d", s, spec, rep.Output, rep.Exit, base.Output, base.Exit)
			}
			if !rep.RTStats.Degraded {
				t.Errorf("%s %s: the device did not degrade", s, spec)
			}
		}
	}
}
