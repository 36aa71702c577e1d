// Async communication layer: overlapped map/unmap on machine streams.
//
// The overlap compiler pass rewrites cgcm.map/cgcm.unmap call sites to
// cgcm.mapAsync/cgcm.unmapAsync where it can prove the host does not
// touch the unit before the next synchronization point. Those verbs are
// Map and Unmap handed a stream: the copy itself, its fault handling and
// its bookkeeping are the one path in resilience.go (copyUnit, uploadUnit,
// flushUnit), where a nil stream means blocking. What this file adds is
// the streams and the launch-side ordering: the interpreter passes the
// accumulated upload events (TakeLaunchWaits) to the next kernel launch,
// so the kernel starts only after its inputs landed.
package runtime

import "cgcm/internal/machine"

// EnableAsync switches the runtime into overlapped-communication mode:
// it creates the upload and flush streams MapAsync/UnmapAsync copy on, and
// routes the machine's per-copy overlap credit into the ledger's
// overlapped-bytes column.
// Without it the streams are nil and the async entry points are their
// blocking equivalents, so IR rewritten by the overlap pass stays correct
// even when a run disables overlap.
func (r *Runtime) EnableAsync() {
	if r.async {
		return
	}
	r.async = true
	r.h2d = r.M.NewStream("h2d")
	r.d2h = r.M.NewStream("d2h")
	if r.lastXfer == nil {
		r.lastXfer = make(map[uint64]machine.Event)
	}
	r.M.SetOverlapSink(r.Ledger.RecordOverlap)
}

// MapAsync is Map with the HtoD copy issued on the upload stream. Until
// EnableAsync creates that stream it is nil, and this is exactly Map.
func (r *Runtime) MapAsync(ptr uint64) (uint64, error) { return r.mapImpl(ptr, r.h2d) }

// UnmapAsync is Unmap with the DtoH copy issued on the flush stream;
// exactly Unmap until EnableAsync.
func (r *Runtime) UnmapAsync(ptr uint64) error { return r.unmapImpl(ptr, r.d2h) }

// TakeLaunchWaits returns the completion events of every async upload
// issued since the last call and clears the list. The interpreter passes
// them to LaunchKernelAt so the kernel waits for its inputs without the
// CPU ever stalling. LaunchKernelAt reads the events and keeps no
// reference to the slice, so the list's backing array is reused: the
// result is valid only until the next async upload.
func (r *Runtime) TakeLaunchWaits() []machine.Event {
	w := r.pendingUploads
	r.pendingUploads = w[:0]
	return w
}
