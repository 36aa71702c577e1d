// The clock: the one piece of code that computes a simulated second.
//
// Every CostModel field is read in this file and nowhere else
// (TestOneClock). The timelines, the pending stream copies and the time
// folds of Stats live in one clock value, and clock.apply is the only
// thing that moves them: the live machine hands it each timed verb's
// cost-free inputs as the program runs, recording them as a Verb when the
// run keeps its record, and replay hands it a recorded list under any
// cost model. Same code, same float operations, same order: a retime at
// the run's own cost model is the run's Stats, bit for bit, and one at
// another model is a re-run's; the run's event log is the replay at its
// own model (Machine.Log).
//
// A verb never carries a time. A wait names the verb whose Event it
// waits for, and a host touch or a free names its address; the clock
// decides whether that stalls. So a run's verb list is the same under
// every cost model.
package machine

import (
	"math"

	"cgcm/internal/faultinject"
	"cgcm/internal/trace"
)

// VerbKind names a timed machine call.
type VerbKind uint8

// Verb kinds, one per call that moves the clock.
const (
	VerbCPU         VerbKind = iota // CPUOps(N)
	VerbInspect                     // InspectorOps(N)
	VerbKernel                      // LaunchKernelAt: N total ops, Max on the longest thread, Waits
	VerbFallback                    // RunKernelOnCPUAt: N ops
	VerbHtoD                        // a copy: N bytes, host Addr, device Dev, Stream, Rescue, Waits
	VerbDtoH                        // the other direction, as VerbHtoD
	VerbAlloc                       // ChargeAllocGPU
	VerbFault                       // DecideFault, when the plan fired on Fault
	VerbPenalty                     // Penalty(D)
	VerbSync                        // Sync
	VerbSyncStreams                 // SyncStreams
	VerbTouch                       // WaitHostUnit(Addr)
	VerbFree                        // Free of [Addr, Addr+N) in Space: waits for the copies over it
	VerbMark                        // GPUReadyEvent
)

// Verb is one timed machine call with the inputs its time depends on and
// no time. Waits holds the events the call waits for, each as 1 + the
// index of the verb that made it (a copy or a mark), 0 for the zero
// Event. Its tag is what only the event log reads.
type Verb struct {
	Kind   VerbKind
	Rescue bool
	Space  Space
	Fault  faultinject.Verb
	Stream int // 1 + the stream's index; 0 is blocking
	N, Max int64
	Addr   uint64
	Dev    uint64
	D      float64
	Waits  []int
	tag    tag
}

// Retime replays verbs through a fresh clock under cost and returns the
// Stats the run would have had.
func Retime(verbs []Verb, cost CostModel) Stats {
	c := clock{cost: cost}
	c.replay(verbs, nil, 0)
	return c.snapshot()
}

// note is a runtime-library or interpreter event in a run's record, with
// no time: the verb positions its span runs from and was booked at.
type note struct {
	ev       trace.Event
	from, at int
}

// replay runs verbs through c, a fresh clock. With c.out non-nil it
// rebuilds the run's event log into it, in booking order: each verb's
// events with its epoch, each note ahead of the verb at its position,
// timed by the clock (an EvLineOps has no time), and last the open CPU
// run, with epoch.
func (c *clock) replay(verbs []Verb, notes []note, epoch uint64) {
	made := make([]float64, len(verbs)) // the time of the Event verb i made
	var cpu []float64                   // the CPU clock at each position
	if notes != nil {
		cpu = make([]float64, len(verbs)+1)
	}
	var waits []Event
	for i := 0; ; i++ {
		if cpu != nil {
			cpu[i] = c.cpu
		}
		for ; len(notes) > 0 && notes[0].at == i; notes = notes[1:] {
			ev := notes[0].ev
			if ev.Kind != trace.EvLineOps {
				ev.Start, ev.End = cpu[notes[0].from], c.cpu
				if ev.Kind == trace.EvCall {
					ev.Dur = ev.End - ev.Start
				}
			}
			c.out = append(c.out, ev)
		}
		if i == len(verbs) {
			break
		}
		waits = waits[:0]
		for _, id := range verbs[i].Waits {
			var e Event
			if id > 0 {
				e.t = made[id-1]
			}
			waits = append(waits, e)
		}
		c.epoch = verbs[i].tag.epoch
		made[i] = c.apply(&verbs[i], waits)
	}
	c.epoch = epoch
	c.flush()
}

// clock is the machine's temporal state.
type clock struct {
	cost CostModel

	cpu     float64   // the CPU timeline
	gpu     float64   // when every kernel launched so far has finished
	streams []float64 // per stream index: when its last issued copy finishes
	pending []asyncOp // stream copies awaiting resolution, in issue order
	flows   uint64    // stream copies issued: the last flow id
	stats   Stats

	// runStart and runOps are the open run of CPU ops, not yet booked, so
	// the log holds contiguous CPU runs rather than one event per call.
	runStart float64
	runOps   int64

	// What else takes each booked event: on the live clock, the per-event
	// histograms (Observe; nil no-ops without a registry) and the ledger's
	// overlap column (SetOverlapSink); on a replay that rebuilds the log,
	// out, stamped with epoch. booked counts them, to size that log.
	booked int
	met    machMetrics
	sink   func(hostBase uint64, overlapped int64)
	out    []trace.Event
	epoch  uint64
}

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

// tag is what a verb's events carry beyond its inputs; no time depends
// on it.
type tag struct {
	name  string // the kernel, or the stream of a stream copy
	line  int    // the launch site
	unit  string // the allocation unit of a copy or a fault
	call  int64  // the fault plan's call count
	epoch uint64 // the kernel epoch when the call was made
}

// apply runs one verb and returns the time of the Event it makes: a
// copy's end, a mark's GPU time, 0 for the rest.
func (c *clock) apply(v *Verb, waits []Event) float64 {
	switch v.Kind {
	case VerbCPU:
		// A field add: the run is booked when something else happens.
		if v.N <= 0 {
			break
		}
		if c.runOps == 0 {
			c.runStart = c.cpu
		}
		c.runOps += v.N
		d := float64(float64(v.N) * c.cost.CPUOp)
		c.cpu += d
		c.stats.CPUTime += d
		c.stats.CPUOps += v.N

	case VerbInspect:
		if v.N <= 0 {
			break
		}
		c.flush()
		d := float64(float64(v.N) * c.cost.InspectorPerOp)
		start := c.cpu
		c.cpu += d
		c.stats.CPUTime += d
		c.emit(&trace.Event{Kind: trace.EvInspect, Start: start, End: c.cpu, Ops: v.N})

	case VerbKernel:
		// The CPU pays the enqueue; the kernel occupies the GPU from the
		// later of the CPU, the GPU and every wait. Waits delay the GPU,
		// never the CPU.
		c.flush()
		c.cpu += c.cost.LaunchCPU
		start := c.cpu
		if c.gpu > start {
			start = c.gpu
		}
		if len(waits) > 0 {
			// base is the start the kernel would have had without the async
			// copies: copy time before base overlapped work that was
			// happening anyway; copy time after base delayed this kernel.
			base := start
			start = latest(start, waits)
			c.resolve(start, base)
		}
		// Fixed overhead plus the larger of the aggregate throughput bound
		// and the critical-path (longest thread) bound.
		throughput := float64(v.N) * c.cost.GPUOp / float64(c.cost.GPUCores)
		critical := float64(float64(v.Max) * c.cost.GPUOp)
		dur := c.cost.LaunchGPU + throughput
		if critical > throughput {
			dur = c.cost.LaunchGPU + critical
		}
		c.gpu = start + dur
		c.emit(&trace.Event{
			Kind: trace.EvKernel, Label: v.tag.name, Line: v.tag.line,
			Start: start, End: c.gpu, Dur: dur, Ops: v.N,
		})
		if c.cost.SyncAfterLaunch {
			c.stallTo(c.gpu)
		}

	case VerbFallback:
		c.flush()
		d := float64(float64(v.N) * c.cost.CPUOp)
		start := c.cpu
		c.cpu += d
		c.emit(&trace.Event{
			Kind: trace.EvFallback, Label: v.tag.name, Line: v.tag.line,
			Start: start, End: c.cpu, Dur: d, Ops: v.N,
		})

	case VerbHtoD, VerbDtoH:
		return c.copy(v, waits)

	case VerbAlloc:
		c.flush()
		c.cpu += c.cost.AllocGPU

	case VerbFault:
		// The failed driver call: a failed DMA still pays its latency, a
		// failed launch its enqueue.
		c.flush()
		var cost float64
		switch v.Fault {
		case faultinject.VerbAlloc:
			cost = c.cost.AllocGPU
		case faultinject.VerbHtoD, faultinject.VerbDtoH:
			cost = c.cost.TransferLat
		case faultinject.VerbLaunch:
			cost = c.cost.LaunchCPU
		}
		start := c.cpu
		c.cpu += cost
		c.emit(&trace.Event{
			Kind: trace.EvFault, Label: v.Fault.String(), Ops: v.tag.call,
			Start: start, End: c.cpu, Unit: v.tag.unit,
		})

	case VerbPenalty:
		if v.D <= 0 {
			break
		}
		c.flush()
		start := c.cpu
		c.cpu += v.D
		c.emit(&trace.Event{Kind: trace.EvPenalty, Start: start, End: c.cpu, Dur: v.D})

	case VerbSync:
		c.flush()
		c.drain(c.gpu)
	case VerbSyncStreams:
		c.drain(c.cpu)
	case VerbTouch:
		c.waitFor(CPU, v.Addr, 1, true)
	case VerbFree:
		c.waitFor(v.Space, v.Addr, v.N, false)
	case VerbMark:
		return c.gpu
	}
	return 0
}

// copy places one DMA on the timeline, books it, and returns its end.
// Blocking (Stream 0), the copy waits for kernels to drain, the CPU pays
// it inline and the GPU resynchronizes; waits are ignored. On a stream it
// is deferred: it starts after the CPU, the stream's last copy, every
// wait and, for a DtoH, the GPU, and stays pending until a
// synchronization resolves it into overlap credit. A rescue goes over the
// slow reliable channel: the same copy at rescueSlowdown times the cost,
// the excess booked as PenaltyTime.
func (c *clock) copy(v *Verb, waits []Event) float64 {
	c.flush()
	d := c.cost.TransferLat + float64(float64(v.N)*c.cost.TransferPerB)
	if v.Rescue {
		d *= rescueSlowdown
	}
	ev := trace.Event{
		Kind: trace.EvHtoD, Lane: trace.LaneXfer, Dur: d,
		Bytes: v.N, Base: v.Addr, Unit: v.tag.unit, Rescue: v.Rescue,
	}
	kind := trace.KindHtoD
	if v.Kind == VerbDtoH {
		ev.Kind, kind = trace.EvDtoH, trace.KindDtoH
	}
	if v.Stream == 0 {
		c.stallTo(c.gpu)
		ev.Start = c.cpu
		c.cpu += d
		c.gpu = c.cpu
	} else {
		s := v.Stream - 1
		for len(c.streams) <= s {
			c.streams = append(c.streams, 0)
		}
		ev.Start = c.cpu
		if c.streams[s] > ev.Start {
			ev.Start = c.streams[s]
		}
		if kind == trace.KindDtoH && c.gpu > ev.Start {
			ev.Start = c.gpu
		}
		ev.Start = latest(ev.Start, waits)
		c.streams[s] = ev.Start + d
		c.flows++
		c.pending = append(c.pending, asyncOp{
			kind: kind, bytes: v.N, start: ev.Start, end: c.streams[s],
			hostBase: v.Addr, hostEnd: v.Addr + uint64(v.N),
			devBase: v.Dev, devEnd: v.Dev + uint64(v.N),
		})
		// An issue instant on the CPU lane, linked by the flow id to the
		// copy interval on the stream's lane.
		ev.Lane, ev.Label, ev.Flow = trace.LaneStreamBase+trace.Lane(s), v.tag.name, c.flows
		ev.Issued, ev.Ops = c.cpu, int64(len(c.pending))
	}
	ev.End = ev.Start + d
	c.emit(&ev)
	return ev.End
}

// latest returns the later of t and every wait's time.
func latest(t float64, waits []Event) float64 {
	for _, e := range waits {
		if e.t > t {
			t = e.t
		}
	}
	return t
}

// emit books one event. The folds run in a fixed order: Stats, then the
// histogram the kind feeds or the overlap sink, and a replay's append to
// the log last.
func (c *clock) emit(ev *trace.Event) {
	st := &c.stats
	switch ev.Kind {
	case trace.EvKernel:
		st.GPUTime += ev.Dur
		st.NumKernels++
		st.GPUOps += ev.Ops
		c.met.kernelDur.Observe(ev.Dur)
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
			c.met.htodBytes.Observe(float64(ev.Bytes))
		} else {
			st.BytesDtoH += ev.Bytes
			st.NumDtoH++
			c.met.dtohBytes.Observe(float64(ev.Bytes))
		}
		if ev.Flow != 0 {
			c.met.streamDepth.Observe(float64(ev.Ops))
		}
	case trace.EvStall:
		st.StallTime += ev.Dur
	case trace.EvPenalty:
		st.PenaltyTime += ev.Dur
	case trace.EvFault:
		st.InjectedFaults++
	case trace.EvOverlap:
		st.OverlappedBytes += ev.Bytes
		if c.sink != nil {
			c.sink(ev.Base, ev.Bytes)
		}
	}
	c.booked++
	if c.out != nil {
		ev.Epoch = c.epoch
		c.out = append(c.out, *ev)
	}
}

// flush books the open run of CPU ops, if any.
func (c *clock) flush() {
	if c.runOps > 0 {
		c.emit(&trace.Event{Kind: trace.EvCPU, Start: c.runStart, End: c.cpu, Ops: c.runOps})
		c.runOps = 0
	}
}

// snapshot returns the Stats; Wall reflects a full sync, including any
// still-pending stream copies.
func (c *clock) snapshot() Stats {
	s := c.stats
	s.Wall = c.cpu
	if c.gpu > s.Wall {
		s.Wall = c.gpu
	}
	for _, op := range c.pending {
		if op.end > s.Wall {
			s.Wall = op.end
		}
	}
	return s
}

// drain resolves every pending copy and stalls the CPU to the later of
// target and the last copy's end.
func (c *clock) drain(target float64) {
	for _, op := range c.pending {
		if op.end > target {
			target = op.end
		}
	}
	c.resolve(math.Inf(1), c.cpu)
	c.stallTo(target)
}

// waitFor blocks the CPU until every pending copy over [base, base+size)
// in space has completed — only device-to-host ones when flushes is set.
func (c *clock) waitFor(space Space, base uint64, size int64, flushes bool) {
	end := base + uint64(size)
	target := c.cpu
	found := false
	for _, op := range c.pending {
		lo, hi := op.hostBase, op.hostEnd
		if space == GPU {
			lo, hi = op.devBase, op.devEnd
		}
		if base < hi && lo < end && (!flushes || op.kind == trace.KindDtoH) {
			found = true
			if op.end > target {
				target = op.end
			}
		}
	}
	if !found {
		return
	}
	c.resolve(target, c.cpu)
	c.stallTo(target)
}

// resolve retires every pending copy that completes by lim, crediting the
// portion of each that ran before tObs (the time useful work had reached
// when the synchronization happened) as overlapped communication. Pending
// order is issue order, so resolution is deterministic.
func (c *clock) resolve(lim, tObs float64) {
	if len(c.pending) == 0 {
		return
	}
	kept := c.pending[:0]
	for _, op := range c.pending {
		if op.end > lim {
			kept = append(kept, op)
			continue
		}
		d := op.end - op.start
		ov := tObs - op.start
		if ov > d {
			ov = d
		}
		if d <= 0 || ov <= 0 {
			continue
		}
		if ob := int64(float64(op.bytes) * ov / d); ob > 0 {
			c.emit(&trace.Event{Kind: trace.EvOverlap, Base: op.hostBase, Bytes: ob})
		}
	}
	c.pending = kept
}

// stallTo advances the CPU clock to t as GPU-wait stall time (no-op when
// t is in the past).
func (c *clock) stallTo(t float64) {
	if t <= c.cpu {
		return
	}
	c.flush()
	c.emit(&trace.Event{Kind: trace.EvStall, Start: c.cpu, End: t, Dur: t - c.cpu})
	c.cpu = t
}
