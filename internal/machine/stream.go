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
// What differs is only where the clock puts the DMA (clock.copy). A
// blocking copy (no stream) is issue plus immediate wait: the CPU pays it
// inline. A stream copy does not stall the CPU at issue; it stays pending
// until a synchronization point — a kernel launch that waits on it, a host
// access to a flushing unit, a free of an involved range, or Sync — which
// credits the part that ran before it as overlapped communication (an
// EvOverlap event: Stats.OverlappedBytes and the ledger's overlap column).
package machine

import (
	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

// Stream is one ordered asynchronous copy queue (one simulated DMA
// engine). Create streams with Machine.NewStream; the zero value is not
// usable.
type Stream struct {
	name string
	idx  int // the stream's index: its lane and its clock
}

// Event marks the completion of an asynchronous operation on the
// simulated clock. The zero Event is "already complete" and waits for
// nothing. id names the verb that made it (Verb.Waits), 0 when no verb
// list is kept.
type Event struct {
	t  float64
	id int
}

// NewStream creates a stream. Each stream gets its own trace lane
// (trace.LaneStreamBase + index) so its copies render on a dedicated
// timeline in the Perfetto export.
func (m *Machine) NewStream(name string) *Stream {
	s := &Stream{name: name, idx: len(m.clk.streams)}
	m.clk.streams = append(m.clk.streams, 0)
	return s
}

// SetOverlapSink directs per-copy overlap credits (CPU base address of
// the copied host range, overlapped bytes) to fn; nil detaches.
// Runtime.EnableAsync points it at its ledger, so nobody assembling a run
// needs to. It stays exported only because hostbench's hand-assembled run
// still makes that call itself (setting the same sink twice is harmless:
// there is one slot, so no credit is booked twice).
func (m *Machine) SetOverlapSink(fn func(hostBase uint64, overlapped int64)) { m.clk.sink = fn }

// GPUReadyEvent returns an event that completes when every kernel
// launched so far has finished — the handle an async copy passes as a
// wait when it must not race the compute timeline.
func (m *Machine) GPUReadyEvent() Event { return m.do(Verb{Kind: VerbMark}, nil) }

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

// charge is the temporal half of every copy verb: one DMA on stream s,
// blocking when s is nil (clock.copy).
func (m *Machine) charge(kind trace.Kind, s *Stream, host, dev uint64, n int64, unit string, rescue bool, waits []Event) Event {
	v := Verb{Kind: VerbHtoD, Rescue: rescue, N: n, Addr: host, Dev: dev, tag: tag{unit: unit}}
	if kind == trace.KindDtoH {
		v.Kind = VerbDtoH
	}
	if s != nil {
		v.Stream, v.tag.name = s.idx+1, s.name
	}
	ev := m.do(v, waits)
	if s != nil && kind == trace.KindDtoH {
		// A pending host-bound flush: invalidate the interpreter's inline
		// caches so the next host access to any unit re-resolves through
		// the machine and charges WaitHostUnit if it touches this one.
		m.gen++
	}
	return ev
}

// SyncStreams drains every pending stream copy, stalling the CPU to the
// last completion. Sync does it too; the runtime calls it directly before
// degrading the device so no async copy is in flight when the escalation
// ladder takes over.
func (m *Machine) SyncStreams() { m.do(Verb{Kind: VerbSyncStreams}, nil) }

// WaitHostUnit blocks the CPU until every in-flight device-to-host copy
// whose destination range contains addr has completed. Host code that
// touches a unit mid-flush pays the DMA wait, exactly like a pagelocked
// buffer consumed before cuStreamSynchronize. The interpreter calls it on
// every host access that misses its inline cache; whether it stalls is the
// clock's to decide.
func (m *Machine) WaitHostUnit(addr uint64) {
	if len(m.clk.streams) > 0 {
		// Only a stream copy can be pending, so without a stream the touch
		// is a no-op under every cost model and is not recorded.
		m.do(Verb{Kind: VerbTouch, Addr: addr}, nil)
	}
}
