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
//   - Temporal: a virtual clock (clock.go) advanced by an analytic cost
//     model (CPU op cost, GPU op throughput, kernel launch overhead,
//     transfer latency and bandwidth). The CPU and GPU have separate
//     timelines; kernels launch asynchronously and device-to-host
//     transfers synchronize, so cyclic communication patterns pay the
//     round-trip price the paper's Figure 2 illustrates while acyclic
//     patterns overlap CPU and GPU work. The clock sees only each timed
//     call's cost-free inputs, which a run can keep as a verb list and
//     Retime under another cost model. A run that wants its event log
//     keeps one record: the verb list, and the runtime library's and
//     interpreter's events as notes at a verb position. The log is its
//     replay (Log), so only the machine reads the simulated clock.
package machine

import (
	"fmt"

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
	// clk is the machine's time (clock.go): every timeline, pending copy
	// and Stats fold. The rest of the machine is functional.
	clk clock

	segs    [2]rbtree.Tree[*Segment]
	nextCPU uint64
	nextGPU uint64

	// segSlab is the unused tail of the chunk new Segments come from, and
	// nsegs counts the Segments made so far (newSegment).
	segSlab []Segment
	nsegs   int

	// epoch is the kernel epoch ("an epoch count which increases every
	// time the program launches a GPU function"): the runtime library
	// advances and consults it, and every verb and note is tagged with it.
	epoch uint64

	// The run's record, kept only when a view of it is wanted (KeepLog),
	// nil otherwise: every timed call with its inputs and tag, and every
	// event the runtime library and the interpreter note, in order.
	verbs []Verb
	notes []note

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
	m := &Machine{nextCPU: nullGuard, nextGPU: GPUBase}
	m.clk = clock{cost: cost}
	return m
}

// Observe attaches the registry the per-event histograms report into; nil
// detaches them.
func (m *Machine) Observe(reg *metrics.Registry) {
	m.clk.met = machMetrics{
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

// KeepLog makes the machine keep the run's record, and so its event log,
// from here on; call it before the first timed call. Nothing is kept
// otherwise, so a run that wants no view of its events pays for none.
func (m *Machine) KeepLog() {
	if m.notes == nil {
		m.notes = make([]note, 0, 256)
	}
}

// KeepsLog reports whether the run's record is being kept.
func (m *Machine) KeepsLog() bool { return m.notes != nil }

// Log returns the run's event log so far, nil unless KeepLog was called:
// its record replayed at its cost model, every event the machine, the
// runtime library and the interpreter booked, in booking order, the open
// run of CPU ops last. Reading it changes nothing.
func (m *Machine) Log() []trace.Event {
	if m.notes == nil {
		return nil
	}
	c := clock{cost: m.clk.cost, out: make([]trace.Event, 0, m.clk.booked+len(m.notes)+1)}
	c.replay(m.verbs, m.notes, m.epoch)
	return c.out
}

// Verbs returns the timed calls made so far, in call order (nil unless
// KeepLog was called before the first). Retime replays them.
func (m *Machine) Verbs() []Verb { return m.verbs }

// do runs one timed call on the clock, recording it first, tagged with the
// kernel epoch, when the run keeps its record, and returns the Event it
// makes (its id names the recorded verb).
func (m *Machine) do(v Verb, waits []Event) Event {
	id := 0
	if m.notes != nil {
		if len(waits) > 0 {
			v.Waits = make([]int, len(waits))
			for i, e := range waits {
				v.Waits[i] = e.id
			}
		}
		v.tag.epoch = m.epoch
		m.verbs = append(m.verbs, v)
		id = len(m.verbs)
	}
	return Event{t: m.clk.apply(&v, waits), id: id}
}

// Pos returns the verb position the next timed call takes.
func (m *Machine) Pos() int { return len(m.verbs) }

// Note books ev, a runtime-library or interpreter event, in the run's
// record when one is kept, with the kernel epoch and the verb position,
// and folds nothing. Log times it: Start at position from (Pos before the
// call it spans, else Pos), End at its own.
func (m *Machine) Note(ev *trace.Event, from int) {
	if m.notes != nil {
		ev.Epoch = m.epoch
		m.notes = append(m.notes, note{ev: *ev, from: from, at: len(m.verbs)})
	}
}

// Epoch returns the kernel epoch.
func (m *Machine) Epoch() uint64 { return m.epoch }

// NextEpoch starts the next kernel epoch; the runtime library calls it at
// every kernel launch.
func (m *Machine) NextEpoch() { m.epoch++ }

// Stats returns a snapshot of the counters; Wall reflects a full sync,
// including any still-pending stream copies.
func (m *Machine) Stats() Stats { return m.clk.snapshot() }

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
	var base uint64
	var data []byte
	if space == CPU {
		if base = m.Reserve(size); base == 0 {
			return 0
		}
		data = make([]byte, size)
	} else {
		if !m.fits(GPU, size) {
			return 0
		}
		base = m.nextGPU
		m.nextGPU = align(m.nextGPU + uint64(size))
		m.gpuUsed += int64(align(uint64(size)))
		if m.gpuUsed > m.gpuPeak {
			m.gpuPeak = m.gpuUsed
		}
		data = m.deviceBuf(size)
	}
	seg := m.newSegment()
	*seg = Segment{Base: base, Data: data, Space: space, Name: name}
	m.segs[space].Put(base, seg)
	return base
}

// Reserve takes size bytes of the CPU address range exactly as Alloc
// would — the same refusal (0), the same alignment — but makes no segment:
// the range has an address and no bytes, and every later address is the
// one it would have had. A load or store into it faults as unmapped. The
// interpreter reserves its promoted locals this way.
func (m *Machine) Reserve(size int64) uint64 {
	if size <= 0 {
		size = 1
	}
	if !m.fits(CPU, size) {
		return 0
	}
	base := m.nextCPU
	m.nextCPU = align(m.nextCPU + uint64(size))
	return base
}

// newSegment returns an unused Segment from the machine's slab. A chunk
// holds as many Segments as the machine has made so far, at least 4 and at
// most 256, so a short run allocates a few small chunks and a long one
// few chunks. A Segment is never handed out twice: an inline cache may
// hold one past its Free.
func (m *Machine) newSegment() *Segment {
	if len(m.segSlab) == 0 {
		m.segSlab = make([]Segment, min(max(4, m.nsegs), 256))
	}
	seg := &m.segSlab[0]
	m.segSlab = m.segSlab[1:]
	m.nsegs++
	return seg
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
	if len(m.clk.streams) > 0 {
		// Only a stream copy can be pending, so without a stream the wait
		// is a no-op under every cost model and is not recorded.
		m.do(Verb{Kind: VerbFree, Space: space, Addr: base, N: int64(len(seg.Data))}, nil)
	}
	if space == GPU {
		size := int64(len(seg.Data))
		m.gpuUsed -= int64(align(uint64(size)))
		if n, ok := m.govBytes[base]; ok && m.gov != nil {
			m.gov.Release(n)
			delete(m.govBytes, base)
		}
		// The buffer moves to the free list.
		if m.free == nil {
			m.free = make(map[int64][][]byte)
		}
		m.free[size] = append(m.free[size], seg.Data)
		m.pooled += int64(align(uint64(size)))
	}
	// The segment loses its buffer: a *Segment held past this Free (an
	// inline cache that missed the Gen change) then fails its bounds check
	// instead of reading the bytes of whichever unit a recycled buffer
	// backs next, and the slab chunk the segment sits in keeps no freed
	// bytes alive. Segments themselves are never recycled, for the same
	// reason.
	seg.Data = nil
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

// CPUOps charges n scalar operations to the CPU timeline.
func (m *Machine) CPUOps(n int64) { m.do(Verb{Kind: VerbCPU, N: n}, nil) }

// InspectorOps charges n sequential inspection operations to the CPU.
func (m *Machine) InspectorOps(n int64) { m.do(Verb{Kind: VerbInspect, N: n}, nil) }

// LaunchKernelAt models an asynchronous kernel launch at source line line
// executing totalOps scalar operations, where the longest thread executes
// maxThreadOps. The CPU pays only the enqueue cost; the kernel occupies
// the GPU timeline, starting no earlier than any wait event (the runtime
// passes the completion events of the async uploads the kernel's
// live-ins depend on); waits delay the GPU, never the CPU.
func (m *Machine) LaunchKernelAt(name string, line int, totalOps, maxThreadOps int64, waits ...Event) {
	m.do(Verb{Kind: VerbKernel, N: totalOps, Max: maxThreadOps, tag: tag{name: name, line: line}}, waits)
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

// ChargeTransferUnit charges a blocking transfer of n bytes in the given
// direction (trace.KindHtoD or trace.KindDtoH) without moving any bytes,
// tagging the booked copy event with unit. The idealized
// inspector-executor, which the paper grants an oracle that transfers
// exactly the needed bytes, and the runtime's shadow pointer arrays move
// their bytes elsewhere.
func (m *Machine) ChargeTransferUnit(kind trace.Kind, n int64, unit string) {
	m.charge(kind, nil, 0, 0, n, unit, false, nil)
}

// ChargeAllocGPU charges the CPU timeline for one cuMemAlloc call. The
// runtime library calls this when Map allocates device memory; kernel
// thread-local scratch is free.
func (m *Machine) ChargeAllocGPU() { m.do(Verb{Kind: VerbAlloc}, nil) }

// Sync blocks the CPU until the GPU and every stream are idle.
func (m *Machine) Sync() { m.do(Verb{Kind: VerbSync}, nil) }
