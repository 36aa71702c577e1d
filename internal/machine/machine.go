// Package machine simulates the paper's experimental platform: a host CPU
// and a discrete GPU with divided memories joined by a PCIe-like link.
//
// The simulation has two independent concerns:
//
//   - Functional: two 64-bit address spaces holding allocation-unit
//     segments. Loads and stores resolve against the segment table and
//     fault if they cross spaces (a CPU dereference of a GPU pointer or
//     vice versa), exactly the failure mode CGCM's communication
//     management exists to prevent. Pointers are plain integers, so all
//     of C's pointer arithmetic works, including arithmetic that walks
//     inside an allocation unit.
//
//   - Temporal: a virtual clock advanced by an analytic cost model
//     (CPU op cost, GPU op throughput, kernel launch overhead, transfer
//     latency and bandwidth). The CPU and GPU have separate timelines;
//     kernels launch asynchronously and device-to-host transfers
//     synchronize, so cyclic communication patterns pay the round-trip
//     price the paper's Figure 2 illustrates while acyclic patterns
//     overlap CPU and GPU work.
package machine

import (
	"fmt"
	"math"
	"slices"

	"cgcm/internal/faultinject"
	"cgcm/internal/metrics"
	"cgcm/internal/rbtree"
	"cgcm/internal/trace"
)

// Space identifies an address space.
type Space int

// Address spaces.
const (
	CPU Space = iota
	GPU
)

func (s Space) String() string {
	if s == GPU {
		return "GPU"
	}
	return "CPU"
}

// Address space layout: the GPU space begins at GPUBase, and allocations
// in it stay below GPUScratchBase, above which the interpreter places its
// per-worker kernel scratch arenas. Nothing is ever allocated in
// [0, nullGuard) so that null and small integers fault.
const (
	GPUBase        uint64 = 0x4000_0000_0000
	GPUScratchBase uint64 = 1 << 47
	nullGuard      uint64 = 0x1_0000
)

// SpaceOf returns which space an address belongs to.
func SpaceOf(addr uint64) Space {
	if addr >= GPUBase {
		return GPU
	}
	return CPU
}

// Fault is a memory access error: out of bounds, unmapped, freed, or
// wrong-space access.
type Fault struct {
	Addr uint64
	Size int64
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault at %#x (size %d): %s", f.Addr, f.Size, f.Msg)
}

// Segment is a single allocation unit in one of the spaces.
type Segment struct {
	Base  uint64
	Data  []byte
	Space Space
	Name  string // diagnostic label ("global x", "malloc", "alloca main")
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + uint64(len(s.Data)) }

// Load reads size bytes (1 or 8) at addr directly from the segment,
// reporting false when the access falls outside it. Interpreter inline
// caches use this fast path; Machine.Load is the general entry point.
func (s *Segment) Load(addr uint64, size int64) (uint64, bool) {
	off := addr - s.Base
	if addr < s.Base || off+uint64(size) > uint64(len(s.Data)) {
		return 0, false
	}
	if size == 1 {
		return uint64(s.Data[off]), true
	}
	d := s.Data[off : off+8]
	return uint64(d[0]) | uint64(d[1])<<8 | uint64(d[2])<<16 | uint64(d[3])<<24 |
		uint64(d[4])<<32 | uint64(d[5])<<40 | uint64(d[6])<<48 | uint64(d[7])<<56, true
}

// Store writes size bytes (1 or 8) at addr directly into the segment,
// reporting false when the access falls outside it.
func (s *Segment) Store(addr uint64, size int64, val uint64) bool {
	off := addr - s.Base
	if addr < s.Base || off+uint64(size) > uint64(len(s.Data)) {
		return false
	}
	if size == 1 {
		s.Data[off] = byte(val)
		return true
	}
	d := s.Data[off : off+8]
	d[0] = byte(val)
	d[1] = byte(val >> 8)
	d[2] = byte(val >> 16)
	d[3] = byte(val >> 24)
	d[4] = byte(val >> 32)
	d[5] = byte(val >> 40)
	d[6] = byte(val >> 48)
	d[7] = byte(val >> 56)
	return true
}

// CostModel holds the analytic timing parameters, in seconds and bytes.
// The defaults approximate the paper's platform: a 2.4 GHz Core 2 Quad
// host, a GTX 480 with 480 CUDA cores, and a PCIe link whose per-transfer
// latency dwarfs per-byte cost for small transfers — the property that
// makes cyclic patterns slow.
type CostModel struct {
	CPUOp          float64 // seconds per CPU scalar operation
	GPUOp          float64 // seconds per GPU scalar operation on one core
	GPUCores       int     // parallel GPU lanes
	LaunchCPU      float64 // CPU-side cost to enqueue a kernel
	LaunchGPU      float64 // GPU-side fixed overhead per kernel
	TransferLat    float64 // fixed latency per DMA transfer
	TransferPerB   float64 // seconds per byte of DMA payload
	AllocGPU       float64 // cuMemAlloc cost
	InspectorPerOp float64 // CPU cost per inspected memory access (inspector-executor)

	// SyncAfterLaunch makes every kernel launch synchronous, removing
	// CPU/GPU overlap. Used by the overlap ablation benchmark; real
	// CUDA launches are asynchronous.
	SyncAfterLaunch bool
}

// DefaultCostModel returns the calibrated cost model used by the
// evaluation harness.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUOp:        0.55e-9, // ~1.8 IPC at 2.4GHz, SSE-vectorized baseline
		GPUOp:        2.5e-9,  // per core; 480 cores aggregate
		GPUCores:     480,
		LaunchCPU:    2e-6,
		LaunchGPU:    3e-6,
		TransferLat:  15e-6,
		TransferPerB: 1.0 / 0.6e9,
		// Bandwidth is expressed relative to simulated compute: the
		// interpreter charges ~4 IR ops per source flop (explicit address
		// arithmetic), so PCIe bytes are scaled by the same factor to
		// keep the paper's compute-to-transfer balance (~26 flops per
		// transferred float on the Core2/GTX480 platform).
		AllocGPU:       10e-6,
		InspectorPerOp: 1.5e-9, // address-stream walk, no FP work
	}
}

// Stats aggregates the temporal counters the evaluation reports.
type Stats struct {
	CPUTime    float64 // total busy CPU compute time
	GPUTime    float64 // total busy GPU kernel time
	CommTime   float64 // total transfer time (latency + payload)
	StallTime  float64 // CPU time spent waiting for the GPU
	Wall       float64 // final wall-clock (CPU timeline after Sync)
	BytesHtoD  int64
	BytesDtoH  int64
	NumHtoD    int64
	NumDtoH    int64
	NumKernels int64
	CPUOps     int64
	GPUOps     int64

	// OverlappedBytes counts transferred bytes whose DMA time ran
	// concurrently with CPU or GPU work (asynchronous stream copies);
	// always 0 on a synchronous run.
	OverlappedBytes int64

	// Resilience counters (zero on a fault-free, infinite-memory run).
	InjectedFaults  int64   // faults fired by the fault plan
	PenaltyTime     float64 // retry-backoff and rescue-overhead time
	RescueCopies    int64   // DtoH copies over the slow reliable channel
	FallbackKernels int64   // kernels executed on the CPU after degradation
	FallbackOps     int64   // scalar ops those kernels executed
}

// Machine is one simulated host+device pair.
type Machine struct {
	Cost CostModel

	segs    [2]rbtree.Tree[*Segment]
	nextCPU uint64
	nextGPU uint64

	cpuTime  float64
	gpuReady float64

	stats Stats

	// epoch is the kernel epoch ("an epoch count which increases every
	// time the program launches a GPU function"): the runtime library
	// advances and consults it, and every event is stamped with it.
	epoch uint64

	// log is the run's event log, kept only when a view of it is wanted
	// (KeepLog): every event the machine, the runtime library and the
	// interpreter book, in booking order. nil otherwise.
	log []trace.Event
	// met holds the per-event histograms (Observe); all nil without a
	// registry.
	met machMetrics

	// pendingCPU accumulates CPU op time not yet booked, so the log holds
	// contiguous CPU runs rather than one event per instruction.
	pendingCPUStart float64
	pendingCPUOps   int64

	// cache holds recently accessed segments per space (4-way, round
	// robin): kernels typically stream a handful of arrays, and each
	// entry saves a tree walk per access.
	cache    [2][4]*Segment
	cacheIdx [2]uint8

	// gen increments whenever a segment is freed, invalidating the
	// interpreter's per-instruction inline caches.
	gen uint64

	// Device model (faults.go): capacity is the GPU memory limit in bytes
	// (0 = unlimited), gpuUsed/gpuPeak track aligned GPU-space segment
	// bytes, and plan injects deterministic faults when non-nil.
	capacity int64
	gpuUsed  int64
	gpuPeak  int64
	plan     *faultinject.Plan

	// free recycles the backing buffers of freed GPU segments, by exact
	// size, and pooled is their aligned total (deviceBuf). Host memory
	// only: no simulated address, byte count or event depends on it. The
	// map is made by the first device Free, so a run that never frees a
	// device segment pays nothing.
	free   map[int64][][]byte
	pooled int64

	// Quota model (quota.go): gov, when non-nil, must approve every
	// AllocDevice; govBytes remembers how much each reserved base was
	// charged so Free releases exactly what was reserved (GPU segments
	// created by plain Alloc are never charged to the governor).
	gov      MemGovernor
	govBytes map[uint64]int64

	// Stream state (stream.go): created streams, in-flight async copies
	// awaiting temporal resolution, the flow-id allocator linking issue
	// instants to copy spans, and the overlap sink feeding the ledger
	// (Runtime.EnableAsync installs it).
	streams     []*Stream
	pending     []asyncOp
	nextFlow    uint64
	overlapSink func(hostBase uint64, overlapped int64)
}

// machMetrics is the machine's per-event instruments: the histograms,
// which only an event can feed. Handles are resolved once in Observe so an
// update never touches the registry map; all nil (free no-ops) without a
// registry. Counters that mirror a Stats field are not instruments of the
// machine: core.RunWith publishes them from the run's final Stats.
type machMetrics struct {
	kernelDur   *metrics.Histogram
	htodBytes   *metrics.Histogram
	dtohBytes   *metrics.Histogram
	streamDepth *metrics.Histogram
}

// Gen returns the segment-table generation; it changes whenever a
// segment is freed, so any cached *Segment from an older generation must
// be re-validated.
func (m *Machine) Gen() uint64 { return m.gen }

// New creates a machine with the given cost model.
func New(cost CostModel) *Machine {
	return &Machine{
		Cost:    cost,
		nextCPU: nullGuard,
		nextGPU: GPUBase,
	}
}

// Observe attaches the registry the per-event histograms report into; nil
// detaches them.
func (m *Machine) Observe(reg *metrics.Registry) {
	m.met = machMetrics{
		kernelDur:   reg.Histogram("machine.kernel.duration_seconds", kernelDurBounds),
		htodBytes:   reg.Histogram("machine.xfer.htod_bytes", transferSizeBounds),
		dtohBytes:   reg.Histogram("machine.xfer.dtoh_bytes", transferSizeBounds),
		streamDepth: reg.Histogram("machine.stream.depth", streamDepthBounds),
	}
}

// The canonical histogram bounds, built once: the registry copies the
// bounds of a histogram it creates, and a run with no registry must not pay
// for building them.
var (
	transferSizeBounds = metrics.ExpBuckets(64, 4, 13)
	kernelDurBounds    = metrics.ExpBuckets(1e-6, 4, 13)
	streamDepthBounds  = metrics.ExpBuckets(1, 2, 8)
)

// TransferSizeBuckets returns the canonical transfer-size histogram
// bounds: 64 B to ~1 GB, powers of 4.
func TransferSizeBuckets() []float64 { return slices.Clone(transferSizeBounds) }

// KernelDurBuckets returns the canonical kernel-duration histogram
// bounds: 1 µs to ~16 s, powers of 4.
func KernelDurBuckets() []float64 { return slices.Clone(kernelDurBounds) }

// StreamDepthBuckets returns the canonical stream-depth histogram bounds:
// 1 to 128 in-flight copies, powers of 2.
func StreamDepthBuckets() []float64 { return slices.Clone(streamDepthBounds) }

// KeepLog makes the machine keep the run's event log from here on. Nothing
// is kept otherwise, so a run that wants no view of its events pays for
// none.
func (m *Machine) KeepLog() {
	if m.log == nil {
		m.log = make([]trace.Event, 0, 256)
	}
}

// KeepsLog reports whether the run's event log is being kept.
func (m *Machine) KeepsLog() bool { return m.log != nil }

// Log books the open run of CPU ops, if any, and returns the events booked
// so far, in booking order (nil unless KeepLog was called).
func (m *Machine) Log() []trace.Event {
	m.flushCPUSpan()
	return m.log
}

// Record appends ev, stamped with the kernel epoch, to the run's log when
// one is kept. It folds nothing: machine.emit calls it after the machine's
// folds, Runtime.emit after the runtime's, and the interpreter books its
// call timings and line ops through it directly.
func (m *Machine) Record(ev *trace.Event) {
	if m.log != nil {
		ev.Epoch = m.epoch
		m.log = append(m.log, *ev)
	}
}

// Epoch returns the kernel epoch.
func (m *Machine) Epoch() uint64 { return m.epoch }

// NextEpoch starts the next kernel epoch; the runtime library calls it at
// every kernel launch.
func (m *Machine) NextEpoch() { m.epoch++ }

// Stats returns a snapshot of the counters; Wall reflects a full sync,
// including any still-pending stream copies.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Wall = m.cpuTime
	if m.gpuReady > s.Wall {
		s.Wall = m.gpuReady
	}
	for _, op := range m.pending {
		if op.end > s.Wall {
			s.Wall = op.end
		}
	}
	return s
}

// Now returns the CPU timeline's current time.
func (m *Machine) Now() float64 { return m.cpuTime }

func align(n uint64) uint64 { return (n + 15) &^ 15 }

// fits reports whether size more bytes, aligned, still end inside the
// space's address range.
func (m *Machine) fits(space Space, size int64) bool {
	next, limit := m.nextCPU, GPUBase
	if space == GPU {
		next, limit = m.nextGPU, GPUScratchBase
	}
	const slack = 15 // the most align adds
	return uint64(size) <= limit-next-slack
}

// Alloc creates a segment of size bytes in the given space and returns its
// base address. Size 0 allocates a 1-byte unit (like malloc(0) returning a
// unique pointer). A size that no longer fits in the space's address range
// (CPU: below GPUBase; GPU: below GPUScratchBase) is refused: Alloc
// returns 0, the null address, and allocates nothing — the size is tenant
// input, and growing past the range would hand out addresses of the
// neighbouring space.
func (m *Machine) Alloc(space Space, size int64, name string) uint64 {
	if size <= 0 {
		size = 1
	}
	if !m.fits(space, size) {
		return 0
	}
	var base uint64
	var data []byte
	if space == CPU {
		base = m.nextCPU
		m.nextCPU = align(m.nextCPU + uint64(size))
		data = make([]byte, size)
	} else {
		base = m.nextGPU
		m.nextGPU = align(m.nextGPU + uint64(size))
		m.gpuUsed += int64(align(uint64(size)))
		if m.gpuUsed > m.gpuPeak {
			m.gpuPeak = m.gpuUsed
		}
		data = m.deviceBuf(size)
	}
	seg := &Segment{Base: base, Data: data, Space: space, Name: name}
	m.segs[space].Put(base, seg)
	return base
}

// deviceBuf returns the zeroed backing buffer of a new size-byte device
// segment, already counted in gpuUsed: a recycled one of exactly that size
// when the free list holds one, else a fresh one. A recycled buffer is
// cleared, so machine memory always reads zero until written. gpuUsed+pooled never exceeds gpuPeak: Free keeps a buffer in
// place of the live bytes it held, and a miss that would carry the sum
// past the mark drops the list, so the host memory behind device segments
// stays within what the program once had live.
func (m *Machine) deviceBuf(size int64) []byte {
	if l := m.free[size]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		m.free[size] = l[:len(l)-1]
		m.pooled -= int64(align(uint64(size)))
		clear(buf)
		return buf
	}
	if m.pooled > 0 && m.gpuUsed+m.pooled > m.gpuPeak {
		clear(m.free)
		m.pooled = 0
	}
	return make([]byte, size)
}

// Free removes the segment at base. It is an error to free a non-base
// address or an unmapped address, matching C. A free waits for any
// in-flight stream copy over the segment's range first, so memory is
// never reclaimed under an active DMA.
func (m *Machine) Free(space Space, base uint64) error {
	seg, ok := m.segs[space].Get(base)
	if !ok {
		return &Fault{Addr: base, Msg: fmt.Sprintf("free of non-allocated %s address", space)}
	}
	if len(m.pending) > 0 {
		m.waitRange(space, base, int64(len(seg.Data)))
	}
	if space == GPU {
		size := int64(len(seg.Data))
		m.gpuUsed -= int64(align(uint64(size)))
		if n, ok := m.govBytes[base]; ok && m.gov != nil {
			m.gov.Release(n)
			delete(m.govBytes, base)
		}
		// The buffer moves to the free list and the segment loses it: a
		// *Segment held past this Free (an inline cache that missed the Gen
		// change) then fails its bounds check instead of reading the bytes
		// of whichever unit the buffer backs next. Segments themselves are
		// never recycled, for the same reason.
		if m.free == nil {
			m.free = make(map[int64][][]byte)
		}
		m.free[size] = append(m.free[size], seg.Data)
		m.pooled += int64(align(uint64(size)))
		seg.Data = nil
	}
	m.segs[space].Delete(base)
	for i, c := range &m.cache[space] {
		if c != nil && c.Base == base {
			m.cache[space][i] = nil
		}
	}
	m.gen++
	return nil
}

// FindSegment returns the segment containing addr, or nil.
func (m *Machine) FindSegment(addr uint64) *Segment {
	space := SpaceOf(addr)
	for _, c := range &m.cache[space] {
		if c != nil && addr >= c.Base && addr < c.End() {
			return c
		}
	}
	_, seg, ok := m.segs[space].GreatestLTE(addr)
	if !ok || addr >= seg.End() {
		return nil
	}
	i := m.cacheIdx[space]
	m.cache[space][i] = seg
	m.cacheIdx[space] = (i + 1) & 3
	return seg
}

// LookupSegment returns the segment containing addr without touching the
// machine's internal access cache, so any number of goroutines may call
// it concurrently as long as no segment is allocated or freed. The
// parallel kernel-execution engine uses it while worker goroutines share
// the segment tree read-only for the duration of a launch.
func (m *Machine) LookupSegment(addr uint64) *Segment {
	_, seg, ok := m.segs[SpaceOf(addr)].GreatestLTE(addr)
	if !ok || addr >= seg.End() {
		return nil
	}
	return seg
}

// segmentFor resolves the single allocation unit holding [addr, addr+size).
// Every sized access and copy goes through it, so a negative size — which
// would wrap the end-of-unit comparison — is rejected here, once.
func (m *Machine) segmentFor(addr uint64, size int64) (*Segment, error) {
	if size < 0 {
		return nil, &Fault{Addr: addr, Size: size, Msg: "negative size"}
	}
	seg := m.FindSegment(addr)
	if seg == nil {
		return nil, &Fault{Addr: addr, Size: size, Msg: "unmapped address"}
	}
	if addr+uint64(size) > seg.End() {
		return nil, &Fault{Addr: addr, Size: size, Msg: fmt.Sprintf(
			"access crosses end of allocation unit %q [%#x,%#x)", seg.Name, seg.Base, seg.End())}
	}
	return seg, nil
}

// Load reads size bytes (1 or 8) at addr, little-endian, zero-extended.
func (m *Machine) Load(addr uint64, size int64) (uint64, error) {
	seg, err := m.segmentFor(addr, size)
	if err != nil {
		return 0, err
	}
	v, _ := seg.Load(addr, size)
	return v, nil
}

// Store writes size bytes (1 or 8) of val at addr, little-endian.
func (m *Machine) Store(addr uint64, size int64, val uint64) error {
	seg, err := m.segmentFor(addr, size)
	if err != nil {
		return err
	}
	seg.Store(addr, size, val)
	return nil
}

// ReadBytes copies n bytes out of a single allocation unit.
func (m *Machine) ReadBytes(addr uint64, n int64) ([]byte, error) {
	seg, err := m.segmentFor(addr, n)
	if err != nil {
		return nil, err
	}
	off := addr - seg.Base
	out := make([]byte, n)
	copy(out, seg.Data[off:])
	return out, nil
}

// WriteBytes copies data into a single allocation unit at addr.
func (m *Machine) WriteBytes(addr uint64, data []byte) error {
	seg, err := m.segmentFor(addr, int64(len(data)))
	if err != nil {
		return err
	}
	copy(seg.Data[addr-seg.Base:], data)
	return nil
}

// emit books one event: it is the only place the machine's tallies are
// written (CPUOps and InspectorOps' clock-and-op adds apart). The folds run
// in a fixed order: Stats, then the ledger's overlap column (the sink) or
// the histogram the kind feeds, and the append to the log last.
func (m *Machine) emit(ev *trace.Event) {
	st := &m.stats
	switch ev.Kind {
	case trace.EvKernel:
		st.GPUTime += ev.Dur
		st.NumKernels++
		st.GPUOps += ev.Ops
		m.met.kernelDur.Observe(ev.Dur)
	case trace.EvFallback:
		st.CPUTime += ev.Dur
		st.CPUOps += ev.Ops
		st.FallbackKernels++
		st.FallbackOps += ev.Ops
	case trace.EvHtoD, trace.EvDtoH:
		if ev.Rescue {
			st.PenaltyTime += float64(ev.Dur * (1 - 1/rescueSlowdown))
			st.RescueCopies++
		}
		st.CommTime += ev.Dur
		if ev.Kind == trace.EvHtoD {
			st.BytesHtoD += ev.Bytes
			st.NumHtoD++
			m.met.htodBytes.Observe(float64(ev.Bytes))
		} else {
			st.BytesDtoH += ev.Bytes
			st.NumDtoH++
			m.met.dtohBytes.Observe(float64(ev.Bytes))
		}
		if ev.Flow != 0 {
			m.met.streamDepth.Observe(float64(ev.Ops))
		}
	case trace.EvStall:
		st.StallTime += ev.Dur
	case trace.EvPenalty:
		st.PenaltyTime += ev.Dur
	case trace.EvFault:
		st.InjectedFaults++
	case trace.EvOverlap:
		st.OverlappedBytes += ev.Bytes
		if m.overlapSink != nil {
			m.overlapSink(ev.Base, ev.Bytes)
		}
	}
	m.Record(ev)
}

func (m *Machine) flushCPUSpan() {
	if m.pendingCPUOps > 0 {
		m.emit(&trace.Event{Kind: trace.EvCPU, Start: m.pendingCPUStart, End: m.cpuTime, Ops: m.pendingCPUOps})
		m.pendingCPUOps = 0
	}
}

// CPUOps charges n scalar operations to the CPU timeline.
func (m *Machine) CPUOps(n int64) {
	if n <= 0 {
		return
	}
	if m.pendingCPUOps == 0 {
		m.pendingCPUStart = m.cpuTime
	}
	m.pendingCPUOps += n
	d := float64(float64(n) * m.Cost.CPUOp)
	m.cpuTime += d
	m.stats.CPUTime += d
	m.stats.CPUOps += n
}

// InspectorOps charges n sequential inspection operations to the CPU.
func (m *Machine) InspectorOps(n int64) {
	if n <= 0 {
		return
	}
	d := float64(float64(n) * m.Cost.InspectorPerOp)
	m.cpuTime += d
	m.stats.CPUTime += d
	m.emit(&trace.Event{Kind: trace.EvInspect, Start: m.cpuTime - d, End: m.cpuTime, Ops: n})
}

// LaunchKernel models an asynchronous kernel launch executing totalOps
// scalar operations across threads, where the longest thread executes
// maxThreadOps. The CPU pays only the enqueue cost; the kernel occupies
// the GPU timeline.
func (m *Machine) LaunchKernel(name string, threads int64, totalOps, maxThreadOps int64) {
	m.LaunchKernelAt(name, 0, threads, totalOps, maxThreadOps)
}

// LaunchKernelAt is LaunchKernel tagged with the launch site's source
// line, which the booked EvKernel event carries for the profile. The
// kernel additionally starts no earlier than any wait event (the runtime
// passes the completion events of the async uploads the kernel's live-ins
// depend on); waits delay the GPU, never the CPU.
func (m *Machine) LaunchKernelAt(name string, line int, threads int64, totalOps, maxThreadOps int64, waits ...Event) {
	m.flushCPUSpan()
	m.cpuTime += m.Cost.LaunchCPU
	start := m.cpuTime
	if m.gpuReady > start {
		start = m.gpuReady
	}
	if len(waits) > 0 {
		// base is the start the kernel would have had without the async
		// copies: copy time before base overlapped work that was happening
		// anyway; copy time after base delayed this kernel.
		base := start
		for _, e := range waits {
			if e.t > start {
				start = e.t
			}
		}
		m.resolvePending(start, base)
	}
	// Kernel duration: fixed overhead plus the larger of the aggregate
	// throughput bound and the critical-path (longest thread) bound.
	throughput := float64(totalOps) * m.Cost.GPUOp / float64(m.Cost.GPUCores)
	critical := float64(float64(maxThreadOps) * m.Cost.GPUOp)
	dur := m.Cost.LaunchGPU + throughput
	if critical > throughput {
		dur = m.Cost.LaunchGPU + critical
	}
	m.gpuReady = start + dur
	m.emit(&trace.Event{
		Kind: trace.EvKernel, Label: name, Line: line,
		Start: start, End: m.gpuReady, Dur: dur, Ops: totalOps,
	})
	if m.Cost.SyncAfterLaunch {
		m.stallTo(m.gpuReady)
	}
}

// unitNameAt names the allocation unit containing addr, for tagging
// transfer events and fault decisions; empty when unknown.
func (m *Machine) unitNameAt(addr uint64) string {
	if seg := m.FindSegment(addr); seg != nil {
		return seg.Name
	}
	return ""
}

// CopyHtoD models a host-to-device DMA of n bytes plus the functional byte
// copy from src (CPU space) to dst (GPU space), blocking: the transfer
// waits for in-flight kernels (the device serializes its DMA engine with
// compute, like cudaMemcpy on the default stream) and the CPU pays it
// inline. It is CopyHtoDAsync with no stream.
func (m *Machine) CopyHtoD(dst, src uint64, n int64) error {
	_, err := m.transfer(trace.KindHtoD, nil, dst, src, n, false, nil)
	return err
}

// CopyDtoH models a blocking device-to-host DMA of n bytes plus the byte
// copy: CopyDtoHAsync with no stream.
func (m *Machine) CopyDtoH(dst, src uint64, n int64) error {
	_, err := m.transfer(trace.KindDtoH, nil, dst, src, n, false, nil)
	return err
}

// ChargeTransfer charges transfer time for n bytes in the given direction
// (trace.KindHtoD or trace.KindDtoH) without moving any bytes (used by
// the idealized inspector-executor, which the paper grants an oracle that
// transfers exactly the needed bytes; the functional copy happens
// wholesale elsewhere).
func (m *Machine) ChargeTransfer(kind trace.Kind, n int64) {
	m.ChargeTransferUnit(kind, n, "")
}

// ChargeTransferUnit is ChargeTransfer with an allocation-unit tag for
// the booked copy event.
func (m *Machine) ChargeTransferUnit(kind trace.Kind, n int64, unit string) {
	m.charge(kind, nil, 0, 0, n, unit, false, nil)
}

// ChargeAllocGPU charges the CPU timeline for one cuMemAlloc call. The
// runtime library calls this when Map allocates device memory; kernel
// thread-local scratch is free.
func (m *Machine) ChargeAllocGPU() { m.cpuTime += m.Cost.AllocGPU }

// Sync blocks the CPU until the GPU is idle.
func (m *Machine) Sync() {
	m.flushCPUSpan()
	target := m.gpuReady
	for _, op := range m.pending {
		if op.end > target {
			target = op.end
		}
	}
	m.resolvePending(math.Inf(1), m.cpuTime)
	m.stallTo(target)
}

// RunFailed marks where execution died on the timeline, so an exported
// trace shows where the run ended; the interpreter reports the error that
// stopped it.
func (m *Machine) RunFailed(err error) {
	m.emit(&trace.Event{Kind: trace.EvRunError, Start: m.cpuTime, End: m.cpuTime, Label: err.Error()})
}
