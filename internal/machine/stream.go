// Streams and events: asynchronous copy engines for the simulated device.
//
// A Stream is an ordered queue of DMA copies with its own occupancy: each
// copy starts no earlier than the stream's previous copy finished, so one
// stream models one copy engine. An Event marks the completion of an
// asynchronous operation on the simulated clock; passing events as wait
// dependencies orders operations across streams (and against the GPU
// compute timeline via GPUReadyEvent), exactly like cuEventRecord /
// cuStreamWaitEvent.
//
// Every copy verb — blocking, stream, rescue — is one path: move (the
// functional byte copy, eager, at issue time, on the root goroutine, in
// program order) followed by charge (the temporal account). Program output
// is therefore structurally bit-identical with overlap on or off, at any
// worker count, under any fault schedule, and a fault schedule hits the
// identical call sequence either way: move is the only place a copy
// consults the fault plan.
//
// What differs is only where charge puts the DMA on the timeline:
//
//   - Blocking (no stream): the copy runs on the implicit default stream
//     and the CPU waits for it. The CPU stalls until in-flight kernels
//     drain, pays the DMA inline on its own clock, and the GPU
//     resynchronizes to the CPU — issue plus immediate wait.
//   - Deferred (a stream): the copy occupies [start, end) on the stream's
//     lane, where start honors the CPU clock, the stream's occupancy, the
//     explicit waits, and (for DtoH) the GPU timeline. The CPU does not
//     stall at issue. Pending copies resolve at the next synchronization
//     point — a kernel launch that waits on them, a host access to a
//     flushing unit, a free of an involved range, or Sync — and the
//     portion of each copy's duration that elapsed before the
//     synchronization observer is credited as overlapped communication
//     (an EvOverlap event: Stats.OverlappedBytes and the ledger's overlap
//     column).
package machine

import (
	"math"

	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

// Stream is one ordered asynchronous copy queue (one simulated DMA
// engine). Create streams with Machine.NewStream; the zero value is not
// usable.
type Stream struct {
	name  string
	lane  trace.Lane
	ready float64 // completion time of the stream's last issued copy
}

// Name returns the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// Event marks the completion of an asynchronous operation on the
// simulated clock. The zero Event is "already complete" and waits for
// nothing.
type Event struct {
	t    float64
	flow uint64
}

// Time returns the simulated completion time the event represents.
func (e Event) Time() float64 { return e.t }

// asyncOp is one in-flight stream copy awaiting temporal resolution.
type asyncOp struct {
	kind       trace.Kind // KindHtoD or KindDtoH
	bytes      int64
	start, end float64
	hostBase   uint64 // CPU-side range the copy reads (HtoD) or writes (DtoH)
	hostEnd    uint64
	devBase    uint64 // GPU-side range
	devEnd     uint64
}

// NewStream creates a stream. Each stream gets its own trace lane
// (trace.LaneStreamBase + index) so its copies render on a dedicated
// timeline in the Perfetto export.
func (m *Machine) NewStream(name string) *Stream {
	s := &Stream{name: name, lane: trace.LaneStreamBase + trace.Lane(len(m.streams))}
	m.streams = append(m.streams, s)
	return s
}

// SetOverlapSink directs per-copy overlap credits (CPU base address of
// the copied host range, overlapped bytes) to fn; nil detaches.
// Runtime.EnableAsync points it at its ledger, so nobody assembling a run
// needs to. It stays exported only because hostbench's hand-assembled run
// still makes that call itself (setting the same sink twice is harmless:
// there is one slot, so no credit is booked twice).
func (m *Machine) SetOverlapSink(fn func(hostBase uint64, overlapped int64)) {
	m.overlapSink = fn
}

// GPUReadyEvent returns an event that completes when every kernel
// launched so far has finished — the handle an async copy passes as a
// wait when it must not race the compute timeline.
func (m *Machine) GPUReadyEvent() Event { return Event{t: m.gpuReady} }

// CopyHtoDAsync issues a host-to-device copy on stream s. The bytes move
// immediately; the DMA occupies the stream's lane starting after the
// stream's previous copy and every wait event. It does not wait for
// in-flight kernels: the runtime only uploads to freshly allocated or
// explicitly event-ordered device memory. A nil stream makes the copy
// blocking — CopyHtoD — which orders behind compute instead and ignores
// waits.
func (m *Machine) CopyHtoDAsync(s *Stream, dst, src uint64, n int64, waits ...Event) (Event, error) {
	return m.transfer(trace.KindHtoD, s, dst, src, n, false, waits)
}

// CopyDtoHAsync issues a device-to-host copy on stream s. It implicitly
// waits for in-flight kernels (the device data must be final) in addition
// to the stream's occupancy and the explicit waits. The host bytes are
// updated immediately, so a later host read is always correct; the machine
// only charges the wait when the host actually touches the flushing unit
// before the DMA completes (WaitHostUnit). A nil stream makes the copy
// blocking — CopyDtoH.
func (m *Machine) CopyDtoHAsync(s *Stream, dst, src uint64, n int64, waits ...Event) (Event, error) {
	return m.transfer(trace.KindDtoH, s, dst, src, n, false, waits)
}

// transfer is one copy across the bus: move the bytes, then charge the
// timeline. kind gives the direction, so the host side is src for HtoD
// and dst for DtoH.
func (m *Machine) transfer(kind trace.Kind, s *Stream, dst, src uint64, n int64, rescue bool, waits []Event) (Event, error) {
	if err := m.move(kind, dst, src, n, rescue); err != nil {
		return Event{}, err
	}
	host, dev := src, dst
	if kind == trace.KindDtoH {
		host, dev = dst, src
	}
	return m.charge(kind, s, host, dev, n, m.unitNameAt(host), rescue, waits), nil
}

// move is the functional half of every copy verb: one fault-plan decision
// (tagged with the host-side unit; the rescue channel is reliable and
// skips it), the bounds checks, and the byte copy straight from one
// segment into the other. A failed move has changed nothing but the fault
// plan's call count and the failed driver call's latency.
func (m *Machine) move(kind trace.Kind, dst, src uint64, n int64, rescue bool) error {
	if m.plan != nil && !rescue {
		verb, host := faultinject.VerbHtoD, src
		if kind == trace.KindDtoH {
			verb, host = faultinject.VerbDtoH, dst
		}
		if de := m.DecideFault(verb, m.unitNameAt(host)); de != nil {
			return de
		}
	}
	from, err := m.segmentFor(src, n)
	if err != nil {
		return err
	}
	to, err := m.segmentFor(dst, n)
	if err != nil {
		return err
	}
	copy(to.Data[dst-to.Base:], from.Data[src-from.Base:][:n])
	return nil
}

// charge is the temporal half of every copy verb: it places one n-byte
// DMA on the timeline and books it as one event. With no stream the copy is
// blocking and lands on the transfer lane; with a stream it is deferred — an
// issue instant on the CPU lane linked by a flow id to the copy interval on
// the stream's lane, stream occupancy, and a pending-op record that later
// resolves into overlap credit. rescue charges the driver's slow reliable
// channel: the same copy at rescueSlowdown times the cost, the excess
// booked as PenaltyTime.
func (m *Machine) charge(kind trace.Kind, s *Stream, host, dev uint64, n int64, unit string, rescue bool, waits []Event) Event {
	m.flushCPUSpan()
	d := m.Cost.TransferLat + float64(float64(n)*m.Cost.TransferPerB)
	if rescue {
		d *= rescueSlowdown
	}
	ev := trace.Event{
		Kind: trace.EvHtoD, Lane: trace.LaneXfer, Dur: d,
		Bytes: n, Base: host, Unit: unit, Rescue: rescue,
	}
	if kind == trace.KindDtoH {
		ev.Kind = trace.EvDtoH
	}
	if s == nil {
		// Blocking: wait for kernels to drain, pay the DMA inline, and
		// resynchronize the GPU.
		m.stallTo(m.gpuReady)
		ev.Start = m.cpuTime
		m.cpuTime += d
		m.gpuReady = m.cpuTime
	} else {
		ev.Start = m.cpuTime
		if s.ready > ev.Start {
			ev.Start = s.ready
		}
		if kind == trace.KindDtoH && m.gpuReady > ev.Start {
			ev.Start = m.gpuReady
		}
		for _, e := range waits {
			if e.t > ev.Start {
				ev.Start = e.t
			}
		}
		s.ready = ev.Start + d
		m.nextFlow++
		m.pending = append(m.pending, asyncOp{
			kind: kind, bytes: n, start: ev.Start, end: s.ready,
			hostBase: host, hostEnd: host + uint64(n),
			devBase: dev, devEnd: dev + uint64(n),
		})
		ev.Lane, ev.Label, ev.Flow = s.lane, s.name, m.nextFlow
		ev.Issued, ev.Ops = m.cpuTime, int64(len(m.pending))
		if kind == trace.KindDtoH {
			// A pending host-bound flush: invalidate the interpreter's inline
			// caches so the next host access to any unit re-resolves through
			// the machine and charges WaitHostUnit if it touches this one.
			m.gen++
		}
	}
	ev.End = ev.Start + d
	m.emit(&ev)
	return Event{t: ev.End, flow: ev.Flow}
}

// retire credits the portion of one finished copy that ran before the
// observer time tObs as overlapped communication.
func (m *Machine) retire(op asyncOp, tObs float64) {
	d := op.end - op.start
	ov := tObs - op.start
	if ov > d {
		ov = d
	}
	if d <= 0 || ov <= 0 {
		return
	}
	if ob := int64(float64(op.bytes) * ov / d); ob > 0 {
		m.emit(&trace.Event{Kind: trace.EvOverlap, Base: op.hostBase, Bytes: ob})
	}
}

// resolvePending retires every pending copy that completes by lim,
// observing overlap relative to tObs (the time useful work had reached
// when the synchronization happened). Pending order is issue order, so
// resolution is deterministic.
func (m *Machine) resolvePending(lim, tObs float64) {
	if len(m.pending) == 0 {
		return
	}
	kept := m.pending[:0]
	for _, op := range m.pending {
		if op.end <= lim {
			m.retire(op, tObs)
		} else {
			kept = append(kept, op)
		}
	}
	m.pending = kept
}

// stallTo advances the CPU clock to t as GPU-wait stall time (no-op when
// t is in the past).
func (m *Machine) stallTo(t float64) {
	if t <= m.cpuTime {
		return
	}
	m.flushCPUSpan()
	m.emit(&trace.Event{Kind: trace.EvStall, Start: m.cpuTime, End: t, Dur: t - m.cpuTime})
	m.cpuTime = t
}

// SyncStreams drains every pending stream copy, stalling the CPU to the
// last completion. Sync calls it; the runtime also calls it directly
// before degrading the device so no async copy is in flight when the
// escalation ladder takes over.
func (m *Machine) SyncStreams() {
	if len(m.pending) == 0 {
		return
	}
	target := m.cpuTime
	for _, op := range m.pending {
		if op.end > target {
			target = op.end
		}
	}
	m.resolvePending(math.Inf(1), m.cpuTime)
	m.stallTo(target)
}

// HostPendingCount reports how many device-to-host stream copies are
// still in flight. The interpreter checks it (cheaply, after an
// inline-cache miss) to decide whether a host access needs WaitHostUnit.
func (m *Machine) HostPendingCount() int {
	n := 0
	for _, op := range m.pending {
		if op.kind == trace.KindDtoH {
			n++
		}
	}
	return n
}

// PendingCopies reports how many stream copies are in flight (tests).
func (m *Machine) PendingCopies() int { return len(m.pending) }

// WaitHostUnit blocks the CPU until every in-flight device-to-host copy
// whose destination range contains addr has completed. Host code that
// touches a unit mid-flush pays the DMA wait, exactly like a pagelocked
// buffer consumed before cuStreamSynchronize.
func (m *Machine) WaitHostUnit(addr uint64) {
	target := m.cpuTime
	found := false
	for _, op := range m.pending {
		if op.kind == trace.KindDtoH && addr >= op.hostBase && addr < op.hostEnd {
			found = true
			if op.end > target {
				target = op.end
			}
		}
	}
	if !found {
		return
	}
	m.resolvePending(target, m.cpuTime)
	m.stallTo(target)
}

// waitRange blocks until every pending copy intersecting [base, base+size)
// in the given space has completed; Free calls it so memory is never
// reclaimed under an in-flight DMA.
func (m *Machine) waitRange(space Space, base uint64, size int64) {
	end := base + uint64(size)
	target := m.cpuTime
	found := false
	for _, op := range m.pending {
		lo, hi := op.hostBase, op.hostEnd
		if space == GPU {
			lo, hi = op.devBase, op.devEnd
		}
		if base < hi && lo < end {
			found = true
			if op.end > target {
				target = op.end
			}
		}
	}
	if !found {
		return
	}
	m.resolvePending(target, m.cpuTime)
	m.stallTo(target)
}
