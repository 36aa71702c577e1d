// Package runtime implements the CGCM run-time support library (§3 of the
// paper).
//
// The library tracks allocation units — contiguous regions of memory
// allocated as a single unit (heap blocks, escaping stack variables,
// globals) — in a self-balancing tree map indexed by base address, and
// translates opaque CPU pointers into equivalent GPU pointers at
// allocation-unit granularity. Transferring whole allocation units means valid pointer
// arithmetic yields the same results on the CPU and the GPU (C99 makes
// arithmetic beyond an allocation unit undefined), so no static analysis
// of aliasing, typing, or indirection is needed.
//
// Map, Unmap, and Release follow Algorithms 1-3 verbatim; the array
// variants implement the doubly-indirect semantics of §3.2. Reference
// counts deallocate GPU memory; an epoch counter (bumped at every kernel
// launch) makes Unmap copy each unit back at most once per epoch.
package runtime

import (
	"errors"
	"fmt"
	"math"

	"cgcm/internal/machine"
	"cgcm/internal/rbtree"
	"cgcm/internal/trace"
)

// runtimeCallOps is the CPU op charge per runtime-library entry point
// (tree lookup plus bookkeeping).
const runtimeCallOps = 50

// AllocInfo describes one tracked allocation unit (the allocInfoMap entry
// of Algorithm 1).
type AllocInfo struct {
	Base     uint64
	Size     int64
	Name     string
	IsGlobal bool
	IsStack  bool // an escaping stack variable (DeclareAlloca)
	ReadOnly bool
	// Line is the source line of the allocation site (0 for globals), the
	// unit's Line on its ledger row.
	Line int

	DevPtr   uint64 // GPU copy base; 0 when not resident
	RefCount int
	Epoch    uint64

	// DeviceGlobal is the preallocated named region for globals
	// (cuModuleGetGlobal's result).
	DeviceGlobal uint64

	// Dirty marks a resident unit the GPU may have written since its
	// last host flush. Maintained only in resilient mode, where evicting
	// a dirty unit must copy it back first.
	Dirty bool

	// devName is "dev:"+Name, the label of the unit's device copies, built
	// by the first map that allocates one.
	devName string
}

// shadowArray tracks the GPU-side pointer array created by MapArray for a
// doubly-indirect allocation unit.
type shadowArray struct {
	DevArr   uint64
	RefCount int
	// Elems are the CPU element pointers captured at map time, used to
	// unmap/release the same units later.
	Elems []uint64
}

// Sentinel error classes for runtime-library misuse. Every *Error wraps
// one of these (or nothing), so callers can classify failures with
// errors.Is without parsing messages.
var (
	// ErrUnknownPointer: the pointer is not inside any tracked
	// allocation unit.
	ErrUnknownPointer = errors.New("unknown pointer")
	// ErrDoubleFree: the pointer names a heap unit that was already freed.
	ErrDoubleFree = errors.New("double free")
	// ErrNotHeapUnit: free/realloc of something that is not a heap
	// allocation unit base (e.g. a global or a stack variable).
	ErrNotHeapUnit = errors.New("not a heap allocation unit")
	// ErrUnbalancedRelease: release/releaseArray without a matching map.
	ErrUnbalancedRelease = errors.New("unbalanced release")
	// ErrNotMapped: unmap/unmapArray of a unit with no device copy.
	ErrNotMapped = errors.New("not mapped")
	// ErrBadSize: a size that is negative or overflows.
	ErrBadSize = errors.New("bad allocation size")
)

// Error is a runtime-library error (unknown pointer, unbalanced release,
// and similar misuse). Err, when set, is the sentinel class the error
// belongs to — or a cause wrapping one — matchable with errors.Is.
type Error struct {
	Op  string
	Ptr uint64
	Msg string
	Err error // sentinel class (ErrUnknownPointer, ...), a cause wrapping one, or nil
}

func (e *Error) Error() string {
	return fmt.Sprintf("cgcm runtime: %s(%#x): %s", e.Op, e.Ptr, e.Msg)
}

// Unwrap exposes the sentinel class to errors.Is.
func (e *Error) Unwrap() error { return e.Err }

// Stats counts runtime-library activity.
type Stats struct {
	Maps, Unmaps, Releases int64
	MapArrays, UnmapArrays int64
	ReleaseArrays          int64
	HtoDCopies, DtoHCopies int64
	EpochSkips             int64 // unmaps avoided by the epoch check
	ResidencySkips         int64 // maps avoided by refcount residency
	LiveUnits              int   // currently tracked allocation units

	// Resilience counters (zero on a fault-free, infinite-memory run).
	Evictions       int64 // device copies dropped under memory pressure
	EvictionBytes   int64 // bytes those units spanned
	Retries         int64 // transient-fault retries (with backoff)
	RescueCopies    int64 // DtoH flushes over the slow reliable channel (the machine's count)
	FallbackMaps    int64 // map calls absorbed as identity after degradation
	FallbackKernels int64 // kernels executed on the CPU after degradation (the machine's count)
	Degraded        bool  // the device failed and the run fell back to the CPU
}

// Runtime is one CGCM runtime instance bound to a machine.
type Runtime struct {
	M *machine.Machine

	// Ledger folds per-allocation-unit communication activity; it is
	// always on (the fold is a few map updates per runtime call) so every
	// Report carries a communication ledger.
	Ledger *trace.LedgerBuilder

	// Line is the source line of the instruction currently calling into the
	// library: the interpreter stamps it before every allocation (the
	// unit's AllocInfo keeps it as the allocation site) and every cgcm.*
	// call (its events carry it, and the profile charges the call's
	// transfers to it).
	Line int

	allocs  rbtree.Tree[*AllocInfo]
	shadows map[uint64]*shadowArray
	stats   Stats

	// infoSlab is the unused tail of the chunk new AllocInfos come from,
	// and ninfos counts the AllocInfos made so far (newInfo).
	infoSlab []AllocInfo
	ninfos   int

	// Async communication state (async.go). async gates MapAsync/UnmapAsync
	// between stream copies and their synchronous equivalents, so the
	// rewritten intrinsics are safe even when overlap is off.
	async          bool
	h2d, d2h       *machine.Stream
	lastXfer       map[uint64]machine.Event // per-unit last async copy, for ordering
	pendingUploads []machine.Event          // uploads the next kernel launch must wait on

	// Resilience state (resilience.go). resilient gates every behavioral
	// difference from the classic infallible-device runtime, so default
	// runs are bit-for-bit unchanged.
	resilient     bool
	res           Resilience
	degraded      bool
	degradeReason string
	lru           []uint64 // eviction candidates, least recently released first
	devRanges     []devRange
	freed         map[uint64]bool // heap bases freed, for double-free detection
}

// New creates a runtime for machine m.
func New(m *machine.Machine) *Runtime {
	return &Runtime{
		M: m, shadows: make(map[uint64]*shadowArray),
		Ledger: trace.NewLedgerBuilder(),
		freed:  make(map[uint64]bool),
	}
}

// emit books one runtime-library event about info's unit (nil: the event
// names no unit — the call failed or was absorbed after degradation, or the
// kind has none); copied says the call moved the unit's bytes. It is the
// only place the runtime's tallies are written, and the folds run in a
// fixed order: Stats, the ledger, then a note in the machine's record. The
// machine the runtime was handed owns the record and the kernel epoch, so
// there is nothing to wire.
func (r *Runtime) emit(kind trace.EventKind, info *AllocInfo, copied bool) {
	r.emitFrom(r.M.Pos(), kind, info, copied)
}

// emitFrom is emit for an event spanning the verbs since position from.
func (r *Runtime) emitFrom(from int, kind trace.EventKind, info *AllocInfo, copied bool) {
	ev := trace.Event{Kind: kind, Line: r.Line, Epoch: r.M.Epoch(), Copied: copied}
	site := 0
	if info != nil {
		ev.Base, ev.Size, ev.Unit = info.Base, info.Size, info.Name
		site = info.Line
	}
	st := &r.stats
	switch kind {
	case trace.EvMap:
		st.Maps++
	case trace.EvUnmap:
		st.Unmaps++
	case trace.EvRelease:
		st.Releases++
	case trace.EvMapArray:
		st.MapArrays++
	case trace.EvUnmapArray:
		st.UnmapArrays++
	case trace.EvReleaseArray:
		st.ReleaseArrays++
	case trace.EvEvict:
		st.Evictions++
		st.EvictionBytes += info.Size
	case trace.EvRetry:
		st.Retries++
	case trace.EvDegrade:
		st.Degraded = true
		ev.Label = r.degradeReason
	}
	htod := kind != trace.EvUnmap
	switch {
	case info == nil:
		if r.degraded && (kind == trace.EvMap || kind == trace.EvMapArray) {
			st.FallbackMaps++ // absorbed: the caller returns the identity mapping
		}
	case copied && htod:
		st.HtoDCopies++
	case copied:
		st.DtoHCopies++
	case kind == trace.EvMap:
		st.ResidencySkips++
	case kind == trace.EvUnmap:
		st.EpochSkips++
	}
	r.Ledger.Fold(&ev, site)
	r.M.Note(&ev, from)
}

// newInfo tracks a new allocation unit: it puts info, in a record from the
// runtime's slab, in the allocation map. A chunk holds as many records as
// the runtime has made so far, at least 4 and at most 256. A record is
// never handed out twice, so one held past its unit's free or expiry
// never describes another unit.
func (r *Runtime) newInfo(info AllocInfo) {
	if len(r.infoSlab) == 0 {
		r.infoSlab = make([]AllocInfo, min(max(4, r.ninfos), 256))
	}
	p := &r.infoSlab[0]
	r.infoSlab = r.infoSlab[1:]
	r.ninfos++
	*p = info
	r.allocs.Put(info.Base, p)
}

// Stats returns a snapshot of the runtime counters. Rescue copies and
// fallback kernels are things the machine does; the snapshot reports the
// machine's counts rather than keep a second tally.
func (r *Runtime) Stats() Stats {
	s := r.stats
	s.LiveUnits = r.allocs.Len()
	ms := r.M.Stats()
	s.RescueCopies, s.FallbackKernels = ms.RescueCopies, ms.FallbackKernels
	return s
}

// KernelLaunched advances the global epoch; the interpreter calls it at
// every kernel launch ("an epoch count which increases every time the
// program launches a GPU function").
func (r *Runtime) KernelLaunched() {
	r.M.NextEpoch()
	if r.resilient && !r.degraded {
		// The kernel may have written any writable resident unit: mark
		// them dirty so a later eviction flushes them host-side first.
		r.allocs.Ascend(func(_ uint64, info *AllocInfo) bool {
			if info.RefCount > 0 && info.DevPtr != 0 && !info.ReadOnly {
				info.Dirty = true
			}
			return true
		})
	}
}

// DeclareGlobal registers a global variable's host allocation unit and
// its preallocated device named region (§3.1: "the compiler inserts calls
// to the run-time library's declareGlobal function before main").
func (r *Runtime) DeclareGlobal(name string, base uint64, size int64, readOnly bool, deviceGlobal uint64) {
	r.newInfo(AllocInfo{
		Base: base, Size: size, Name: name,
		IsGlobal: true, ReadOnly: readOnly, DeviceGlobal: deviceGlobal,
	})
}

// DeclareAlloca registers an escaping stack variable's allocation unit.
// The registration expires when the frame pops (RemoveAlloca). A local
// whose address nothing can observe is not a unit and is never declared.
func (r *Runtime) DeclareAlloca(base uint64, size int64, name string) {
	r.newInfo(AllocInfo{Base: base, Size: size, Name: name, IsStack: true, Line: r.Line})
}

// RemoveAlloca expires a stack registration. Any GPU residual is freed
// (a mapped unit leaving scope is defensive; a cached resilient-mode
// copy is normal).
func (r *Runtime) RemoveAlloca(base uint64) {
	if info, ok := r.allocs.Get(base); ok {
		if !info.IsGlobal && info.DevPtr != 0 {
			_ = r.M.Free(machine.GPU, info.DevPtr)
			r.lruRemove(base)
		}
		r.allocs.Delete(base)
		delete(r.lastXfer, base)
	}
}

// Malloc allocates a heap allocation unit and registers it (the library
// "wraps around malloc, calloc, realloc, and free"). Like libc it returns
// NULL for a size the address space cannot hold.
func (r *Runtime) Malloc(size int64) uint64 {
	base := r.M.Alloc(machine.CPU, size, "malloc")
	if base == 0 {
		return 0
	}
	r.newInfo(AllocInfo{Base: base, Size: size, Name: "malloc", Line: r.Line})
	return base
}

// Calloc allocates a zeroed heap unit (machine memory is always zeroed).
// The element-count multiplication is overflow-checked, matching libc:
// calloc must fail rather than return an undersized unit when n*size
// wraps int64.
func (r *Runtime) Calloc(n, size int64) (uint64, error) {
	if n < 0 || size < 0 {
		return 0, &Error{Op: "calloc", Msg: "negative size", Err: ErrBadSize}
	}
	if size != 0 && n > math.MaxInt64/size {
		return 0, &Error{Op: "calloc", Msg: "size overflow", Err: ErrBadSize}
	}
	base := r.Malloc(n * size)
	if base == 0 {
		return 0, &Error{Op: "calloc", Msg: "size exceeds the address space", Err: ErrBadSize}
	}
	return base, nil
}

// Realloc resizes a heap unit, preserving contents up to the smaller size.
func (r *Runtime) Realloc(ptr uint64, size int64) (uint64, error) {
	if size < 0 {
		return 0, &Error{Op: "realloc", Ptr: ptr, Msg: "negative size", Err: ErrBadSize}
	}
	if ptr == 0 {
		return r.Malloc(size), nil
	}
	info, ok := r.allocs.Get(ptr)
	if !ok || info.IsGlobal || info.IsStack {
		return 0, &Error{Op: "realloc", Ptr: ptr, Msg: "not a heap allocation unit base", Err: ErrNotHeapUnit}
	}
	nbase := r.Malloc(size)
	if nbase == 0 {
		return 0, &Error{Op: "realloc", Ptr: ptr, Msg: "size exceeds the address space", Err: ErrBadSize}
	}
	n := info.Size
	if size < n {
		n = size
	}
	data, err := r.M.ReadBytes(ptr, n)
	if err != nil {
		return 0, err
	}
	if err := r.M.WriteBytes(nbase, data); err != nil {
		return 0, err
	}
	if err := r.Free(ptr); err != nil {
		return 0, err
	}
	return nbase, nil
}

// Free releases a heap unit and its registration.
func (r *Runtime) Free(ptr uint64) error {
	info, ok := r.allocs.Get(ptr)
	if !ok {
		if r.freed[ptr] {
			return &Error{Op: "free", Ptr: ptr, Msg: "double free of heap allocation unit", Err: ErrDoubleFree}
		}
		return &Error{Op: "free", Ptr: ptr, Msg: "not an allocation unit base", Err: ErrUnknownPointer}
	}
	if info.IsGlobal {
		return &Error{Op: "free", Ptr: ptr, Msg: "cannot free a global", Err: ErrNotHeapUnit}
	}
	if info.IsStack {
		return &Error{Op: "free", Ptr: ptr, Msg: "cannot free a stack variable", Err: ErrNotHeapUnit}
	}
	if info.DevPtr != 0 {
		// Mapped (defensive) or cached for reuse (resilient mode): the
		// device copy dies with the unit.
		_ = r.M.Free(machine.GPU, info.DevPtr)
		r.lruRemove(ptr)
	}
	r.allocs.Delete(ptr)
	r.freed[ptr] = true
	// Host addresses are never handed out twice, so nothing can order
	// behind this unit's last stream copy any more.
	delete(r.lastXfer, ptr)
	return r.M.Free(machine.CPU, ptr)
}

// Lookup finds the allocation unit containing ptr via greatestLTE.
func (r *Runtime) Lookup(ptr uint64) *AllocInfo {
	_, info, ok := r.allocs.GreatestLTE(ptr)
	if !ok || ptr >= info.Base+uint64(info.Size) {
		return nil
	}
	return info
}

func (r *Runtime) lookupOrErr(op string, ptr uint64) (*AllocInfo, error) {
	info := r.Lookup(ptr)
	if info == nil {
		return nil, &Error{Op: op, Ptr: ptr, Msg: "pointer is not inside any tracked allocation unit", Err: ErrUnknownPointer}
	}
	return info, nil
}

// Map implements Algorithm 1: given a CPU pointer, return the equivalent
// GPU pointer, allocating and copying the allocation unit if it is not
// already resident.
func (r *Runtime) Map(ptr uint64) (uint64, error) { return r.mapImpl(ptr, nil) }

// mapImpl is Map with an upload schedule: on stream s the HtoD copy is
// issued on s instead of being paid inline; nil is the blocking Map.
// Nothing else depends on s, which is what keeps a run's ledger and
// remarks identical with overlap on or off.
func (r *Runtime) mapImpl(ptr uint64, s *machine.Stream) (uint64, error) {
	r.M.CPUOps(runtimeCallOps)
	info, copied, err := r.mapUnit(ptr, s)
	r.emit(trace.EvMap, info, copied)
	if err != nil {
		return 0, err
	}
	if info == nil {
		// Absorbed by CPU-fallback mode: kernels run against CPU memory,
		// so the "GPU pointer" for ptr is ptr itself.
		return ptr, nil
	}
	info.RefCount++
	return info.DevPtr + (ptr - info.Base), nil
}

// mapUnit makes ptr's unit resident and reports whether that took an
// upload. It returns no unit when the call failed or the runtime is (or
// just became) degraded.
func (r *Runtime) mapUnit(ptr uint64, s *machine.Stream) (*AllocInfo, bool, error) {
	if r.degraded {
		return nil, false, nil
	}
	info, err := r.lookupOrErr("map", ptr)
	if err != nil {
		return nil, false, err
	}
	if info.RefCount > 0 {
		return info, false, nil
	}
	fresh := false
	if !info.IsGlobal {
		if info.DevPtr == 0 {
			if info.devName == "" {
				info.devName = "dev:" + info.Name
			}
			dev, aerr := r.allocDevice(info.Size, info.devName)
			if aerr != nil {
				return nil, false, r.degradeMap("device allocation for "+info.Name, aerr)
			}
			info.DevPtr = dev
			r.M.ChargeAllocGPU()
			fresh = true
		} else {
			// Resilient mode cached the device copy at release time:
			// reuse the allocation, but re-upload below — the CPU may
			// have written the unit since.
			r.lruRemove(info.Base)
		}
	} else {
		info.DevPtr = info.DeviceGlobal // cuModuleGetGlobal
	}
	if cerr := r.uploadUnit(info, s, fresh); cerr != nil {
		return nil, false, r.degradeMap("upload of "+info.Name, cerr)
	}
	return info, true, nil
}

// Unmap implements Algorithm 2: update the CPU allocation unit from the
// GPU copy unless the unit's epoch is current or the unit is read-only.
func (r *Runtime) Unmap(ptr uint64) error { return r.unmapImpl(ptr, nil) }

// unmapImpl is Unmap with a flush schedule: on stream s the DtoH copy is
// issued on s (host bytes land immediately; the wall-clock wait is only
// charged if the host touches the unit before the DMA completes); nil is
// the blocking Unmap.
func (r *Runtime) unmapImpl(ptr uint64, s *machine.Stream) error {
	r.M.CPUOps(runtimeCallOps)
	info, copied, err := r.unmapUnit(ptr, s)
	r.emit(trace.EvUnmap, info, copied)
	return err
}

// unmapUnit brings the host copy of ptr's unit up to date and reports
// whether that took a copy. It returns no unit when the call failed or the
// runtime is degraded (kernels then write CPU memory directly, so there is
// nothing to copy back).
func (r *Runtime) unmapUnit(ptr uint64, s *machine.Stream) (*AllocInfo, bool, error) {
	if r.degraded {
		return nil, false, nil
	}
	info, err := r.lookupOrErr("unmap", ptr)
	if err != nil {
		return nil, false, err
	}
	if info.Epoch == r.M.Epoch() || info.ReadOnly {
		return info, false, nil
	}
	if info.DevPtr == 0 {
		return nil, false, &Error{Op: "unmap", Ptr: ptr, Msg: "allocation unit has no GPU copy", Err: ErrNotMapped}
	}
	if err := r.flushUnit(info, s); err != nil {
		return nil, false, err
	}
	info.Epoch = r.M.Epoch()
	return info, true, nil
}

// Release implements Algorithm 3: drop a reference; free the GPU copy of
// a non-global unit when the count reaches zero.
func (r *Runtime) Release(ptr uint64) error {
	r.M.CPUOps(runtimeCallOps)
	var info *AllocInfo
	var err error
	if !r.degraded {
		info, err = r.lookupOrErr("release", ptr)
		if err == nil && info.RefCount == 0 {
			info, err = nil, &Error{Op: "release", Ptr: ptr, Msg: "unbalanced release (refcount already zero)", Err: ErrUnbalancedRelease}
		}
	}
	r.emit(trace.EvRelease, info, false)
	if info == nil {
		return err
	}
	info.RefCount--
	if info.RefCount == 0 && !info.IsGlobal {
		if r.resilient {
			// Keep the device copy cached: the next map reuses the
			// allocation, and memory pressure can evict it (LRU).
			r.lru = append(r.lru, info.Base)
		} else {
			if err := r.M.Free(machine.GPU, info.DevPtr); err != nil {
				return err
			}
			info.DevPtr = 0
		}
	}
	return nil
}

// MapArray implements the doubly-indirect variant: translate every CPU
// pointer stored in ptr's allocation unit into a GPU pointer in a fresh
// GPU-side array, then return a pointer into that array.
func (r *Runtime) MapArray(ptr uint64) (uint64, error) {
	r.M.CPUOps(runtimeCallOps)
	dev, err := r.mapArray(ptr)
	r.emit(trace.EvMapArray, nil, false)
	return dev, err
}

// mapArray does MapArray's work. Whenever it finds the runtime degraded —
// on entry, or because one of its own maps or allocations killed the
// device — the whole array falls back to its CPU form: the CPU array
// already holds CPU element pointers, which is exactly what fallback
// kernels need.
func (r *Runtime) mapArray(ptr uint64) (uint64, error) {
	if r.degraded {
		return ptr, nil
	}
	info, err := r.lookupOrErr("mapArray", ptr)
	if err != nil {
		return 0, err
	}
	sh := r.shadows[info.Base]
	if sh != nil && sh.RefCount > 0 {
		// Shadow already live: re-map every element so reference counts
		// stay balanced with the matching ReleaseArray (the maps are
		// residency hits and copy nothing).
		for i, p := range sh.Elems {
			if _, err := r.Map(p); err != nil {
				r.releaseElems(sh.Elems[:i])
				return 0, err
			}
		}
		if r.degraded {
			return ptr, nil
		}
		sh.RefCount++
		return sh.DevArr + (ptr - info.Base), nil
	}
	n := info.Size / 8
	elems := make([]uint64, 0, n)
	devElems := make([]uint64, n)
	for i := int64(0); i < n; i++ {
		p, err := r.M.Load(info.Base+uint64(i*8), 8)
		if err != nil {
			return 0, err
		}
		if p == 0 {
			continue
		}
		d, err := r.Map(p)
		if err != nil {
			r.releaseElems(elems)
			return 0, &Error{Op: "mapArray", Ptr: ptr,
				Msg: fmt.Sprintf("element %d: %v", i, err), Err: err}
		}
		if r.degraded {
			return ptr, nil
		}
		devElems[i] = d
		elems = append(elems, p)
	}
	var devArr uint64
	if info.IsGlobal {
		// A global array of pointers is translated in place into its
		// device named region, so kernels referencing the global see
		// device element pointers.
		devArr = info.DeviceGlobal
	} else {
		devArr, err = r.allocDevice(info.Size, "devarray:"+info.Name)
		if err != nil {
			if err = r.degradeMap("device allocation for array "+info.Name, err); err != nil {
				return 0, err
			}
			return ptr, nil
		}
		r.M.ChargeAllocGPU()
	}
	for i, d := range devElems {
		if err := r.M.Store(devArr+uint64(i*8), 8, d); err != nil {
			return 0, err
		}
	}
	r.M.ChargeTransferUnit(trace.KindHtoD, info.Size, info.Name)
	r.emit(trace.EvUpload, info, true)
	r.shadows[info.Base] = &shadowArray{DevArr: devArr, RefCount: 1, Elems: elems}
	return devArr + (ptr - info.Base), nil
}

// releaseElems drops the references a failing MapArray already took on
// elems: they are on no shadow's count, so no ReleaseArray would.
func (r *Runtime) releaseElems(elems []uint64) {
	for _, p := range elems {
		_ = r.Release(p)
	}
}

// UnmapArray updates the CPU copy of every allocation unit pointed to by
// the array's elements. The pointer array itself is never copied back:
// CGCM forbids GPU functions from storing pointers, so the array cannot
// have changed, and copying GPU pointers into CPU memory would corrupt it.
func (r *Runtime) UnmapArray(ptr uint64) error {
	r.M.CPUOps(runtimeCallOps)
	r.emit(trace.EvUnmapArray, nil, false)
	if r.degraded {
		return nil
	}
	info, err := r.lookupOrErr("unmapArray", ptr)
	if err != nil {
		return err
	}
	sh := r.shadows[info.Base]
	if sh == nil || sh.RefCount == 0 {
		return &Error{Op: "unmapArray", Ptr: ptr, Msg: "array is not mapped", Err: ErrNotMapped}
	}
	for _, p := range sh.Elems {
		if err := r.Unmap(p); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseArray drops a reference on the array and on every element's
// allocation unit, freeing the GPU shadow array at zero.
func (r *Runtime) ReleaseArray(ptr uint64) error {
	r.M.CPUOps(runtimeCallOps)
	r.emit(trace.EvReleaseArray, nil, false)
	if r.degraded {
		return nil
	}
	info, err := r.lookupOrErr("releaseArray", ptr)
	if err != nil {
		return err
	}
	sh := r.shadows[info.Base]
	if sh == nil || sh.RefCount == 0 {
		return &Error{Op: "releaseArray", Ptr: ptr, Msg: "unbalanced releaseArray", Err: ErrUnbalancedRelease}
	}
	for _, p := range sh.Elems {
		if err := r.Release(p); err != nil {
			return err
		}
	}
	sh.RefCount--
	if sh.RefCount == 0 {
		if !info.IsGlobal {
			if err := r.M.Free(machine.GPU, sh.DevArr); err != nil {
				return err
			}
		}
		delete(r.shadows, info.Base)
	}
	return nil
}
