// Device fault model: finite GPU memory and injected failures.
//
// The real CGCM runtime ran against a CUDA driver where cuMemAlloc can
// return OOM and transfers can fail. This file makes the simulated device
// fallible in the same ways, deterministically: a configurable memory
// capacity turns AllocDevice into a partial function, and an attached
// faultinject.Plan injects typed faults on allocation, transfers, and
// kernel launches. All fault decisions happen on the goroutine driving
// the machine (device calls are root-goroutine-only), so a fault schedule
// is a pure function of the call sequence — independent of the kernel
// engine's worker count.
package machine

import (
	"fmt"

	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

// rescueSlowdown is the cost multiplier of the slow reliable transfer
// channel charged by RescueCopyDtoH (think: staged cuMemcpy through pinned
// bounce buffers with per-chunk acknowledgment).
const rescueSlowdown = 8.0

// SetGPUCapacity limits device memory to bytes (0 = unlimited). Only
// AllocDevice enforces the limit; plain Alloc stays infallible so code
// that predates the fault model keeps working.
func (m *Machine) SetGPUCapacity(bytes int64) { m.capacity = bytes }

// SetFaultPlan attaches a fault-injection plan (nil detaches).
func (m *Machine) SetFaultPlan(p *faultinject.Plan) { m.plan = p }

// FaultPlan returns the attached plan, if any.
func (m *Machine) FaultPlan() *faultinject.Plan { return m.plan }

// GPUMemUsed returns the current aligned GPU-space segment bytes.
func (m *Machine) GPUMemUsed() int64 { return m.gpuUsed }

// GPUMemPeak returns the high-water mark of GPUMemUsed.
func (m *Machine) GPUMemPeak() int64 { return m.gpuPeak }

// DecideFault consults the fault plan for one call of verb and returns
// the injected *DeviceError, or nil when the call proceeds. A fired
// fault charges the CPU timeline for the failed driver call (a failed
// DMA still pays its latency; a failed launch still pays the enqueue
// cost) and books an EvFault event (an instant fault span).
func (m *Machine) DecideFault(v faultinject.Verb, unit string) *faultinject.DeviceError {
	fault, call, persistent := m.plan.Decide(v, unit)
	if !fault {
		return nil
	}
	m.do(Verb{Kind: VerbFault, Fault: v}, nil, tag{unit: unit, call: call})
	return &faultinject.DeviceError{
		Verb: v, Unit: unit, Call: call,
		Transient: !persistent, Injected: true,
		Msg: "injected by fault plan",
	}
}

// AllocDevice is the fallible device allocator: it consults the fault
// plan, enforces the capacity limit, and otherwise allocates a GPU-space
// segment. Unlike Alloc it does not charge cuMemAlloc time — callers
// charge ChargeAllocGPU on success, matching the runtime's existing
// accounting.
func (m *Machine) AllocDevice(size int64, name string) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	if m.plan != nil {
		if de := m.DecideFault(faultinject.VerbAlloc, name); de != nil {
			return 0, de
		}
	}
	if !m.fits(GPU, size) {
		return 0, &faultinject.DeviceError{
			Verb: faultinject.VerbAlloc, Unit: name,
			Msg: fmt.Sprintf("%d bytes do not fit in the device address space", size),
		}
	}
	need := int64(align(uint64(size)))
	if m.capacity > 0 && m.gpuUsed+need > m.capacity {
		return 0, &faultinject.DeviceError{
			Verb: faultinject.VerbAlloc, Unit: name,
			Msg: fmt.Sprintf("device memory exhausted: %d bytes used of %d, need %d",
				m.gpuUsed, m.capacity, need),
		}
	}
	if m.gov != nil {
		if gerr := m.gov.Reserve(need); gerr != nil {
			// A quota denial is shaped like capacity OOM (non-injected,
			// non-transient), so the resilient runtime responds the same
			// way: evict this run's own cached units, then degrade to CPU
			// fallback. Other tenants' machines are untouched.
			return 0, &faultinject.DeviceError{
				Verb: faultinject.VerbAlloc, Unit: name,
				Msg: gerr.Error(),
			}
		}
	}
	base := m.Alloc(GPU, size, name)
	if m.gov != nil {
		m.govBytes[base] = need
	}
	return base, nil
}

// Penalty advances the CPU timeline by d seconds of non-compute overhead
// (retry backoff). The time counts toward Wall and PenaltyTime but not
// CPUTime, so compute accounting stays honest.
func (m *Machine) Penalty(d float64) { m.do(Verb{Kind: VerbPenalty, D: d}, nil, tag{}) }

// RescueCopyDtoH copies n device bytes to the host over the driver's
// slow reliable channel: a blocking CopyDtoH that never consults the fault
// plan and always succeeds (given valid addresses), at rescueSlowdown
// times the normal transfer cost — the escape hatch that lets the runtime
// flush dirty data off a dying device, making CPU-fallback degradation
// lossless.
func (m *Machine) RescueCopyDtoH(dst, src uint64, n int64) error {
	_, err := m.transfer(trace.KindDtoH, nil, dst, src, n, true, nil)
	return err
}

// RunKernelOnCPUAt charges a degraded (CPU-fallback) kernel execution:
// totalOps scalar operations run sequentially on the host, with no
// launch overhead and no GPU involvement. It is booked as EvFallback, not
// EvKernel, so degraded schedules render distinctly and the profile keeps
// the launch apart from GPU work.
func (m *Machine) RunKernelOnCPUAt(name string, line int, totalOps int64) {
	m.do(Verb{Kind: VerbFallback, N: totalOps}, nil, tag{name: name, line: line})
}
