package interp

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// launch executes a launch instruction at source line line according to
// the launch mode; vals are its operand bits: grid, block, kernel
// arguments.
func (ex *exec) launch(kernel *funcCode, line int, vals []uint64) error {
	in := ex.in
	threads := int64(vals[0]) * int64(vals[1])
	if threads <= 0 {
		threads = 1
	}
	args := vals[2:]
	ex.flushOps()
	if in.Mode == Inspector {
		return in.launchInspector(kernel, line, threads, args)
	}
	return in.launchManaged(kernel, line, threads, args)
}

// launchManaged runs every thread against GPU memory and charges one
// asynchronous kernel. The runtime epoch advances so subsequent unmaps
// know GPU memory may have changed. Under a fault plan the launch driver
// call itself can fail: transient faults retry inside PreLaunch, and a
// persistent failure degrades the device, after which this launch (and
// every later one) executes on the CPU instead.
func (in *Interp) launchManaged(kernel *funcCode, line int, threads int64, args []uint64) error {
	// Kernel-launch boundary: a canceled run stops here before paying
	// for another grid, the abort point the service deadline promises.
	if err := in.checkCancel(kernel.name); err != nil {
		return err
	}
	in.RT.Line = line // the launch's retries and degradation carry it
	if err := in.RT.PreLaunch(kernel.name); err != nil {
		return err
	}
	if in.RT.Degraded() {
		return in.launchFallback(kernel, line, threads, args)
	}
	in.RT.KernelLaunched()
	res, err := in.runGrid(kernel, line, threads, args, false, false)
	if err != nil {
		return err
	}
	in.Mach.LaunchKernelAt(kernel.name, line, res.totalOps, res.maxOps, in.RT.TakeLaunchWaits()...)
	return nil
}

// launchFallback executes a kernel on the CPU after device degradation.
// The runtime's map surface has become an identity layer, so kernel
// arguments are CPU pointers — except device addresses handed out before
// the device died, which translate back to their CPU allocation units.
// Threads run functionally against host memory and the machine charges
// sequential CPU execution, so the program's output is bit-identical to
// a fault-free run; only the schedule differs.
func (in *Interp) launchFallback(kernel *funcCode, line int, threads int64, args []uint64) error {
	in.RT.KernelLaunched()
	targs := make([]uint64, len(args))
	for i, a := range args {
		if machine.SpaceOf(a) == machine.GPU {
			if cpu, ok := in.RT.TranslateDev(a); ok {
				a = cpu
			}
		}
		targs[i] = a
	}
	res, err := in.runGrid(kernel, line, threads, targs, true, false)
	if err != nil {
		return err
	}
	in.Mach.RunKernelOnCPUAt(kernel.name, line, res.totalOps)
	return nil
}

// launchInspector implements the paper's idealized inspector-executor
// comparator (§6.3): "The inspector-executor system has an oracle for
// scheduling and transfers exactly one byte between CPU and GPU for each
// accessed allocation unit. A compiler creates the inspector from the
// original loop." Inspection is sequential CPU work proportional to the
// loop's memory accesses; communication is one tiny (cyclic) transfer per
// touched allocation unit in each direction; execution then occupies the
// GPU timeline. Functionally, threads run against host memory — the
// oracle's transfers are assumed perfect.
func (in *Interp) launchInspector(kernel *funcCode, line int, threads int64, args []uint64) error {
	if err := in.checkCancel(kernel.name); err != nil {
		return err
	}
	in.RT.KernelLaunched()
	res, err := in.runGrid(kernel, line, threads, args, true, true)
	if err != nil {
		return err
	}
	// Sequential inspection: the inspector walks the loop's address
	// stream on the CPU before any parallel work can start.
	in.Mach.InspectorOps(res.inspAcc)
	// Oracle transfers: one byte per accessed unit in, one byte per
	// written unit out. Each transfer pays full latency — this is what
	// keeps the pattern cyclic.
	for i := 0; i < res.inspTouched; i++ {
		in.Mach.ChargeTransferUnit(trace.KindHtoD, 1, "")
	}
	in.Mach.LaunchKernelAt(kernel.name, line, res.totalOps, res.maxOps)
	for i := 0; i < res.inspWrote; i++ {
		in.Mach.ChargeTransferUnit(trace.KindDtoH, 1, "")
	}
	return nil
}

// gridResult is the deterministic merge of all workers' accounting for
// one launch.
type gridResult struct {
	totalOps, maxOps int64
	inspAcc          int64
	inspTouched      int // distinct allocation units read or written
	inspWrote        int // distinct allocation units written
}

type threadFault struct {
	tid int64
	err error
}

// numWorkers resolves the configured worker count.
func (in *Interp) numWorkers() int {
	if in.Workers > 0 {
		return in.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerCtxs returns the first n pooled worker contexts, growing the pool
// on demand; contexts persist across launches so their inline caches,
// value stacks and scratch arenas stay warm.
func (in *Interp) workerCtxs(n int) []*exec {
	for len(in.workers) < n {
		in.workers = append(in.workers, &exec{in: in, worker: true, id: len(in.workers)})
	}
	return in.workers[:n]
}

// runThread runs one kernel thread, converting any panic in interpreter
// internals into a typed execution error. Worker goroutines must never
// let a panic escape: it would kill the process instead of surfacing
// through the launch's deterministic fault merge.
func (ex *exec) runThread(kernel *funcCode, args []uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &Error{Fn: kernel.name, Msg: fmt.Sprintf("internal: panic in kernel thread %d: %v", ex.tid, p)}
		}
	}()
	frame := ex.prepare(kernel, 0)
	copy(frame[:kernel.params], args)
	_, err = ex.invoke(kernel, 0)
	return
}

// threadSeed derives a per-thread RNG stream (splitmix64) so any
// RNG-consuming kernel code is deterministic regardless of the schedule.
// (The mini-C front end rejects rand in kernels; this covers hand-built
// IR.)
func threadSeed(seed uint64, tid int64) uint64 {
	z := seed + uint64(tid+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// gridRun is the state the contexts of one launch share. It lives on the
// interpreter and is reset by every launch (launches never nest: a kernel
// that reaches a launch instruction faults), so a launch allocates none of
// it; outs and faults keep their backing arrays from one launch to the next.
type gridRun struct {
	kernel           *funcCode
	args             []uint64
	threads          int64
	chunk, nChunks   int64
	hostMem, inspect bool
	seed             uint64 // the root context's RNG state at the launch
	depth            int    // and its call depth

	outs   []*bytes.Buffer // per chunk, made by the first write
	next   atomic.Int64    // next unclaimed chunk
	minErr atomic.Int64    // lowest faulting thread id; threads while none

	faultMu sync.Mutex
	faults  []threadFault
	wg      sync.WaitGroup
}

// run is one worker context's share of the launch: it claims chunks until
// none is left or every remaining thread lies above a faulting one.
func (g *gridRun) run(ex *exec) {
	ex.beginLaunch(g.hostMem, g.inspect, g.threads)
	for {
		ci := g.next.Add(1) - 1
		if ci >= g.nChunks {
			break
		}
		lo := ci * g.chunk
		hi := lo + g.chunk
		if hi > g.threads {
			hi = g.threads
		}
		if lo > g.minErr.Load() {
			break
		}
		ex.outSlot = &g.outs[ci]
		ex.out = ex
		for t := lo; t < hi; t++ {
			if t > g.minErr.Load() {
				break
			}
			ex.rng = threadSeed(g.seed, t)
			if ex.race != nil {
				ex.race.tid = t
			}
			// Each thread starts from an empty scratch stack and its
			// own op count, whatever the previous one left behind.
			ex.tid, ex.ops, ex.depth = t, 0, g.depth
			ex.scratchNext, ex.scratchSegs = ex.scratchBase, ex.scratchSegs[:0]
			if err := ex.runThread(g.kernel, g.args); err != nil {
				g.faultMu.Lock()
				g.faults = append(g.faults, threadFault{t, err})
				g.faultMu.Unlock()
				for {
					cur := g.minErr.Load()
					if t >= cur || g.minErr.CompareAndSwap(cur, t) {
						break
					}
				}
				break
			}
			ex.totalOps += ex.ops
			if ex.ops > ex.maxOps {
				ex.maxOps = ex.ops
			}
		}
	}
	ex.endLaunch()
}

// runGrid executes the grid×block thread space of one kernel launch.
//
// The thread space is split into contiguous chunks claimed from an
// atomic counter by worker contexts (up to GOMAXPROCS of them, pooled on
// the interpreter). During the launch the machine's segment tree is
// read-only — kernel allocas come from per-worker scratch arenas — so
// workers resolve memory without locks. After the barrier everything is
// merged deterministically:
//
//   - op counts fold by sum/max, which are schedule-independent;
//   - inspector touch-sets fold by union;
//   - kernel output buffers replay in thread order;
//   - if any threads faulted, the lowest thread id wins, exactly the
//     fault sequential execution reports (workers skip threads above the
//     current minimum faulting tid, so every lower thread still runs).
func (in *Interp) runGrid(kernel *funcCode, line int, threads int64, args []uint64, hostMem, inspect bool) (gridResult, error) {
	nw := in.numWorkers()
	if int64(nw) > threads {
		nw = int(threads)
	}
	chunk := threads / int64(nw*4)
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (threads + chunk - 1) / chunk

	g := &in.grid
	g.kernel, g.args, g.threads = kernel, args, threads
	g.chunk, g.nChunks = chunk, nChunks
	g.hostMem, g.inspect = hostMem, inspect
	g.seed, g.depth = in.root.rng, in.root.depth
	if int64(cap(g.outs)) < nChunks {
		g.outs = make([]*bytes.Buffer, nChunks)
	}
	g.outs = g.outs[:nChunks]
	g.next.Store(0)
	g.minErr.Store(threads) // sentinel: no fault
	g.faults = g.faults[:0]
	// Whichever way the launch ends, the state keeps neither the caller's
	// arguments nor the output and errors of this launch alive.
	defer func() {
		g.kernel, g.args = nil, nil
		clear(g.outs)
		clear(g.faults)
	}()

	ws := in.workerCtxs(nw)
	if nw == 1 {
		g.run(ws[0])
	} else {
		for _, ex := range ws {
			g.wg.Add(1)
			go func(ex *exec) {
				defer g.wg.Done()
				g.run(ex)
			}(ex)
		}
		g.wg.Wait()
	}

	// Book exact per-line op attribution on the launch goroutine: the
	// barrier above guarantees no context is still counting, and zeroing
	// after the fold scopes every counter to exactly one launch. Booking
	// happens even on a fault so partial work is still attributed.
	if in.Mach.KeepsLog() {
		in.bookLineOps(ws, kernel.name, line, hostMem && !inspect)
	}

	// Replay buffered kernel output in thread order; on a fault, exactly
	// the output threads 0..faultTid produced, as sequential execution
	// would have printed.
	errTid := g.minErr.Load()
	for ci := int64(0); ci < nChunks && ci*chunk <= errTid; ci++ {
		if out := g.outs[ci]; out != nil {
			in.Out.Write(out.Bytes())
		}
	}
	if errTid < threads {
		for _, f := range g.faults {
			if f.tid == errTid {
				prefix := "kernel"
				if inspect {
					prefix = "inspector kernel"
				}
				return gridResult{}, fmt.Errorf("%s %s, thread %d: %w", prefix, kernel.name, f.tid, f.err)
			}
		}
		return gridResult{}, &Error{Fn: kernel.name, Msg: "internal: faulting thread vanished during merge"}
	}

	var res gridResult
	var raceLogs [][]writeIv
	if inspect {
		// Fold worker touch-sets by union: the merged set is the same
		// for any chunk assignment.
		touched := ws[0].insp.touched
		wrote := ws[0].insp.wrote
		for _, ex := range ws[1:] {
			for b := range ex.insp.touched {
				touched[b] = true
			}
			for b := range ex.insp.wrote {
				wrote[b] = true
			}
		}
		res.inspTouched = len(touched)
		res.inspWrote = len(wrote)
	}
	for _, ex := range ws {
		res.totalOps += ex.totalOps
		if ex.maxOps > res.maxOps {
			res.maxOps = ex.maxOps
		}
		if inspect {
			res.inspAcc += ex.insp.acc
		}
		if ex.race != nil && len(ex.race.ivs) > 0 {
			raceLogs = append(raceLogs, ex.race.ivs)
		}
	}
	if in.RaceCheck && !inspect {
		in.Races = append(in.Races, sweepRaces(kernel.name, raceLogs)...)
	}
	return res, nil
}

// bookLineOps books one launch's per-line op counts, gathered from the
// contexts that ran it: one EvLineOps event per kernel source line, in line
// order, on the GPU lane — or on the CPU lane when the launch ran as CPU
// fallback, whose ops the machine charges as FallbackOps, not GPUOps.
func (in *Interp) bookLineOps(ws []*exec, kernel string, site int, fallback bool) {
	acc := in.lineAcc[:0]
	for _, ex := range ws {
		acc = ex.foldProf(acc)
	}
	slices.SortFunc(acc, func(a, b lineOps) int { return cmp.Compare(a.line, b.line) })
	lane := trace.LaneGPU
	if fallback {
		lane = trace.LaneCPU
	}
	for i := 0; i < len(acc); {
		ev := trace.Event{Kind: trace.EvLineOps, Lane: lane, Label: kernel, Line: site, KernelLine: int(acc[i].line)}
		for ; i < len(acc) && int(acc[i].line) == ev.KernelLine; i++ {
			ev.Ops += acc[i].ops
		}
		if ev.Ops != 0 {
			in.Mach.Note(&ev, in.Mach.Pos())
		}
	}
	in.lineAcc = acc
}
