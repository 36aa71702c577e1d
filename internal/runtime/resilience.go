// Resilience layer: how the runtime reacts to a fallible device.
//
// Three escalating responses, all invisible to the program:
//
//  1. Evict: when device allocation fails for lack of memory, the
//     least-recently-released unpinned unit (refcount zero, device copy
//     cached) is flushed (if dirty) and freed, and the allocation
//     retries — the paper's map promotion keeps units resident across
//     epochs, so a finite device needs exactly this pressure valve.
//  2. Retry: transient transfer/alloc/launch faults retry up to
//     MaxRetries with exponential simulated-clock backoff.
//  3. Degrade: when retries are exhausted or a persistent fault fires,
//     the runtime flushes every dirty resident unit back to the host
//     (over the machine's slow reliable rescue channel if need be),
//     frees the device, and flips into CPU-fallback mode: Map/Unmap/
//     Release become identity no-ops and every remaining kernel runs
//     against CPU memory. Output is bit-identical to a fault-free run.
//
// All decisions happen on the root goroutine (runtime calls are
// root-only), so a fault schedule plays out identically at any worker
// count.
package runtime

import (
	"errors"
	"fmt"
	"sort"

	"cgcm/internal/faultinject"
	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// Resilience configures the runtime's reaction to device faults.
type Resilience struct {
	// MaxRetries bounds retries of a transiently failing operation
	// before the runtime gives up and degrades.
	MaxRetries int
	// BackoffBase is the first retry's simulated-clock backoff in
	// seconds; it doubles per subsequent retry of the same operation.
	BackoffBase float64
}

// DefaultResilience is the policy core.Run installs when a fault plan or
// capacity is configured: 8 retries starting at 1 µs of backoff.
func DefaultResilience() Resilience {
	return Resilience{MaxRetries: 8, BackoffBase: 1e-6}
}

// EnableResilience switches the runtime into resilient mode: released
// units keep their device copies cached for reuse (and become eviction
// candidates), transient faults are retried per res, and unrecoverable
// faults degrade the run to CPU fallback instead of failing it.
func (r *Runtime) EnableResilience(res Resilience) {
	r.resilient = true
	r.res = res
}

// Degraded reports whether the device has failed and the run is in
// CPU-fallback mode.
func (r *Runtime) Degraded() bool { return r.degraded }

// DegradeReason describes why the run degraded ("" when it has not).
func (r *Runtime) DegradeReason() string { return r.degradeReason }

// devRange maps one retired device address range back to its CPU
// allocation unit, so pointers handed out before degradation can still
// be translated for CPU-fallback kernels.
type devRange struct {
	lo, hi uint64 // device range [lo, hi)
	cpu    uint64 // CPU base of the owning allocation unit
}

// TranslateDev maps a device-space address handed out before degradation
// to its CPU equivalent. Only meaningful after Degrade. Device memory the
// program manages itself (cuda_malloc) belongs to no unit: the first
// translation into it rescues its segment to a host twin over the
// reliable channel and frees the device copy, as degrade does for units,
// and records the same kind of entry.
func (r *Runtime) TranslateDev(addr uint64) (uint64, bool) {
	i := sort.Search(len(r.devRanges), func(i int) bool { return r.devRanges[i].hi > addr })
	if i < len(r.devRanges) && addr >= r.devRanges[i].lo {
		return r.devRanges[i].cpu + (addr - r.devRanges[i].lo), true
	}
	seg := r.M.FindSegment(addr)
	if !r.degraded || seg == nil || seg.Space != machine.GPU {
		return 0, false
	}
	lo, size := seg.Base, int64(len(seg.Data))
	twin := r.M.Alloc(machine.CPU, size, seg.Name)
	if twin == 0 || r.M.RescueCopyDtoH(twin, lo, size) != nil || r.M.Free(machine.GPU, lo) != nil {
		return 0, false
	}
	r.devRanges = append(r.devRanges, devRange{})
	copy(r.devRanges[i+1:], r.devRanges[i:])
	r.devRanges[i] = devRange{lo: lo, hi: lo + uint64(size), cpu: twin}
	return twin + (addr - lo), true
}

// noteRetry charges one retry: counter plus exponential simulated backoff.
func (r *Runtime) noteRetry(attempt int) {
	r.emit(trace.EvRetry, nil, false)
	if attempt > 30 {
		attempt = 30
	}
	r.M.Penalty(r.res.BackoffBase * float64(uint64(1)<<uint(attempt)))
}

// retryable reports whether err is a transient device fault worth
// retrying given the attempt count so far.
func (r *Runtime) retryable(err error, attempt int) bool {
	var de *faultinject.DeviceError
	return errors.As(err, &de) && de.Transient && attempt < r.res.MaxRetries
}

// copyUnit moves info's whole allocation unit across the bus — host to
// device when htod, device to host otherwise — on stream s, or blocking
// when s is nil (the machine's degenerate schedule, which ignores waits).
// Every copy the runtime makes of a unit goes through here, so this is the
// runtime's only transient-fault retry loop, and a fault schedule consumes
// identical fault-plan decisions with overlap on or off.
func (r *Runtime) copyUnit(info *AllocInfo, htod bool, s *machine.Stream, waits ...machine.Event) (ev machine.Event, err error) {
	for attempt := 0; ; {
		if htod {
			ev, err = r.M.CopyHtoDAsync(s, info.DevPtr, info.Base, info.Size, waits...)
		} else {
			ev, err = r.M.CopyDtoHAsync(s, info.Base, info.DevPtr, info.Size, waits...)
		}
		if err == nil || !r.retryable(err, attempt) {
			break
		}
		attempt++
		r.noteRetry(attempt)
	}
	if err == nil && s != nil {
		// Per-unit copies chain through lastXfer so two stream transfers
		// of the same unit never reorder.
		r.lastXfer[info.Base] = ev
	}
	return ev, err
}

// uploadUnit copies info's host bytes to its device copy (the map event of
// the call in progress books the transfer). On the upload stream s it queues the copy's completion event
// for the next kernel launch (TakeLaunchWaits), so the kernel starts only
// after its inputs landed but the CPU never stalls. A freshly allocated
// destination cannot race anything; a reused device region (cached copy,
// global named region) orders behind the compute timeline so the upload
// never lands under a running kernel.
func (r *Runtime) uploadUnit(info *AllocInfo, s *machine.Stream, fresh bool) error {
	waits := [2]machine.Event{r.lastXfer[info.Base]}
	if !fresh {
		waits[1] = r.M.GPUReadyEvent()
	}
	ev, err := r.copyUnit(info, true, s, waits[:]...)
	if err != nil {
		return err
	}
	if s != nil {
		r.pendingUploads = append(r.pendingUploads, ev)
	}
	info.Dirty = false
	return nil
}

// flushUnit lands info's device bytes on the host no matter what: the
// normal copy (on stream s, or blocking when nil) with retry first, then
// the machine's slow reliable rescue channel, which is always blocking —
// a dying device does not get to overlap. Device data is never lost to a
// fault — the invariant that makes degradation outputs bit-identical to
// fault-free runs. This is the runtime's only retry-then-rescue ladder.
// An unmap's flush is booked as a transfer by the unmap event; an
// eviction's is housekeeping no runtime tally counts as a copy (the machine
// still counts the DMA, and the ledger books the unit's Evictions).
func (r *Runtime) flushUnit(info *AllocInfo, s *machine.Stream) error {
	if _, err := r.copyUnit(info, false, s, r.lastXfer[info.Base]); err != nil {
		var de *faultinject.DeviceError
		if !errors.As(err, &de) {
			return err // functional error (bad address): a real bug, propagate
		}
		if err := r.M.RescueCopyDtoH(info.Base, info.DevPtr, info.Size); err != nil {
			return err
		}
	}
	info.Dirty = false
	return nil
}

// allocDevice is the fallible device allocator with the eviction loop:
// capacity OOM evicts the LRU cached unit and retries; injected
// transient faults back off and retry. The returned error means the
// device is out of options and the caller should degrade.
func (r *Runtime) allocDevice(size int64, name string) (uint64, error) {
	for attempt := 0; ; {
		dev, err := r.M.AllocDevice(size, name)
		if err == nil {
			return dev, nil
		}
		var de *faultinject.DeviceError
		if !errors.As(err, &de) {
			return 0, err
		}
		if de.Injected {
			if !de.Transient || attempt >= r.res.MaxRetries {
				return 0, err
			}
			attempt++
			r.noteRetry(attempt)
			continue
		}
		// Genuine capacity OOM: make room and retry. No candidates left
		// means the working set truly exceeds the device.
		evicted, eerr := r.evictOne()
		if eerr != nil {
			return 0, eerr
		}
		if !evicted {
			return 0, err
		}
	}
}

// lruRemove drops base from the eviction candidate list, if present.
func (r *Runtime) lruRemove(base uint64) {
	for i, b := range r.lru {
		if b == base {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
			return
		}
	}
}

// evictOne evicts the least-recently-released cached unit: flush dirty
// bytes D2H, free the device copy, and book the eviction. Returns false
// when no candidate exists.
func (r *Runtime) evictOne() (bool, error) {
	for len(r.lru) > 0 {
		base := r.lru[0]
		r.lru = r.lru[1:]
		info, ok := r.allocs.Get(base)
		if !ok || info.DevPtr == 0 || info.RefCount != 0 {
			continue // stale entry: unit freed or re-pinned since release
		}
		if err := r.evictUnit(info); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// evictUnit drops one unit's device copy (flushing dirty bytes first).
func (r *Runtime) evictUnit(info *AllocInfo) error {
	if info.Dirty && !info.ReadOnly {
		if err := r.flushUnit(info, nil); err != nil {
			return err
		}
	}
	if !info.IsGlobal {
		if err := r.M.Free(machine.GPU, info.DevPtr); err != nil {
			return err
		}
	}
	info.DevPtr = 0
	r.emit(trace.EvEvict, info, false)
	return nil
}

// degrade flips the run into CPU-fallback mode: record a translation
// entry for every device range ever handed out, flush all dirty
// resident units to the host, free the device, and make the runtime's
// map/unmap/release surface an identity layer. cause is the fault that
// killed the device.
func (r *Runtime) degrade(what string, cause error) error {
	if r.degraded {
		return nil
	}
	// Drain in-flight stream copies first: the escalation ladder must not
	// run under an async DMA, and the drain resolves their overlap credit
	// before the device state is torn down.
	r.M.SyncStreams()
	r.degraded = true
	r.degradeReason = what
	if cause != nil {
		r.degradeReason = fmt.Sprintf("%s: %v", what, cause)
	}
	from := r.M.Pos()

	// Resident units: translation entries, dirty flushes, device frees.
	// Ascend order is base-address order — deterministic.
	var flushErr error
	r.allocs.Ascend(func(_ uint64, info *AllocInfo) bool {
		if info.DeviceGlobal != 0 {
			r.addDevRange(info.DeviceGlobal, info.Size, info.Base)
		}
		if info.DevPtr == 0 {
			return true
		}
		if info.DevPtr != info.DeviceGlobal {
			r.addDevRange(info.DevPtr, info.Size, info.Base)
		}
		if err := r.evictUnit(info); err != nil {
			flushErr = err
			return false
		}
		return true
	})
	if flushErr != nil {
		return flushErr
	}

	// Shadow pointer arrays: translation entries for their device ranges.
	// (The CPU arrays still hold the CPU element pointers — MapArray
	// never modifies them — so fallback kernels read them directly.)
	bases := make([]uint64, 0, len(r.shadows))
	for base := range r.shadows {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		sh := r.shadows[base]
		if info, ok := r.allocs.Get(base); ok {
			r.addDevRange(sh.DevArr, info.Size, base)
			if !info.IsGlobal {
				_ = r.M.Free(machine.GPU, sh.DevArr)
			}
		}
	}

	sort.Slice(r.devRanges, func(i, j int) bool { return r.devRanges[i].lo < r.devRanges[j].lo })
	r.lru = nil
	r.emitFrom(from, trace.EvDegrade, nil, false)
	return nil
}

// addDevRange records one device range → CPU base translation.
func (r *Runtime) addDevRange(lo uint64, size int64, cpu uint64) {
	if lo == 0 || size <= 0 {
		return
	}
	for _, dr := range r.devRanges {
		if dr.lo == lo {
			return
		}
	}
	r.devRanges = append(r.devRanges, devRange{lo: lo, hi: lo + uint64(size), cpu: cpu})
}

// degradeMap handles an unrecoverable device error during Map/MapArray:
// device faults degrade the run to CPU fallback, after which the caller
// returns the identity mapping; functional errors (bad addresses — real
// bugs) propagate.
func (r *Runtime) degradeMap(what string, cause error) error {
	var de *faultinject.DeviceError
	if !errors.As(cause, &de) {
		return cause
	}
	return r.degrade(what+" failed", cause)
}

// PreLaunch models the kernel-launch driver call under the fault plan:
// transient launch faults retry with backoff; a persistent fault (or an
// exhausted budget) degrades the device, after which the caller must
// check Degraded and execute the kernel on the CPU instead. A nil
// return with the runtime not degraded means the GPU launch proceeds.
func (r *Runtime) PreLaunch(kernel string) error {
	if r.degraded || r.M.FaultPlan() == nil {
		return nil
	}
	for attempt := 0; ; {
		de := r.M.DecideFault(faultinject.VerbLaunch, kernel)
		if de == nil {
			return nil
		}
		if !de.Transient || attempt >= r.res.MaxRetries {
			return r.degrade("kernel "+kernel+" launch failed", de)
		}
		attempt++
		r.noteRetry(attempt)
	}
}

// AllocDeviceGlobal allocates a global's device named region at module
// load (cuModuleGetGlobal). Under fault injection the load itself can
// fail; the runtime then degrades before main ever runs and returns 0 —
// every kernel will execute in CPU-fallback mode.
func (r *Runtime) AllocDeviceGlobal(cpuBase uint64, size int64, name string) uint64 {
	if r.degraded {
		return 0
	}
	dev, err := r.allocDevice(size, "devglobal "+name)
	if err != nil {
		_ = r.degrade("module load: device region for global "+name, err)
		return 0
	}
	r.addDevRange(dev, size, cpuBase)
	return dev
}
