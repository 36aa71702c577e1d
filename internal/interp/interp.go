// Package interp executes IR modules on the simulated machine.
//
// The interpreter plays three roles:
//
//   - CPU execution of ordinary functions, charging the machine's CPU
//     timeline and enforcing that CPU code only touches CPU memory.
//   - GPU execution of kernels: a launch runs every thread functionally,
//     counts per-thread work, and charges one asynchronous kernel on the
//     GPU timeline. Kernel code may only touch GPU memory, so missing or
//     wrong communication management faults instead of silently reading
//     stale data.
//   - The CGCM runtime binding: cgcm.* intrinsics call into
//     internal/runtime, and every kernel launch advances the epoch.
//
// An alternative launch mode implements the paper's idealized
// inspector-executor comparator (§6.3).
//
// Kernel launches execute in parallel on the host: the thread space is
// partitioned into contiguous chunks claimed by a pool of worker
// contexts (see exec.go and launch.go), each owning its frame stack, op
// counters, scratch allocator, and inspector touch-set. Results merge
// deterministically after the barrier, so program output, machine
// statistics, and faults are identical for any worker count.
//
// Execution does not walk the IR. The first interpreter made for a module
// lowers it once to flat code kept on the module (lower.go), and one
// dispatch loop (exec.run) executes that code in every context.
package interp

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// LaunchMode selects how kernel launches are executed.
type LaunchMode int

// Launch modes.
const (
	// Managed runs kernels against GPU memory; communication must have
	// been arranged (by CGCM intrinsics or manually). Cross-space access
	// faults.
	Managed LaunchMode = iota
	// Inspector implements the idealized inspector-executor system:
	// sequential inspection, oracle scheduling, one byte of transfer per
	// accessed allocation unit per direction, kernels run functionally
	// against CPU memory.
	Inspector
)

// Limits bound interpretation so runaway programs terminate.
type Limits struct {
	MaxSteps     int64 // total executed instructions (CPU + GPU); 0 = default
	MaxCallDepth int   // 0 = default
}

// DefaultLimits are generous enough for the benchmark suite.
var DefaultLimits = Limits{MaxSteps: 4_000_000_000, MaxCallDepth: 4096}

// Error is a runtime execution error with a description of where it arose.
// Err is the machine's or the runtime library's error it reports, if any
// (its text is Msg), so errors.Is and errors.As see through it.
type Error struct {
	Fn  string
	Msg string
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("interp: in %s: %s", e.Fn, e.Msg) }

func (e *Error) Unwrap() error { return e.Err }

// CancelError is the typed error returned when the driving context is
// canceled or its deadline expires mid-run. Execution stops at the next
// step-batch refill or kernel-launch boundary, so the machine and
// runtime statistics observed so far are still coherent. Unwrap exposes
// the context's cause, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) both work through any wrapping.
type CancelError struct {
	Fn    string // function (or kernel) executing when the run stopped
	Cause error  // the context's Err(): Canceled or DeadlineExceeded
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("interp: in %s: run canceled: %v", e.Fn, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// Interp executes one module.
type Interp struct {
	Mod  *ir.Module
	Mach *machine.Machine
	RT   *runtime.Runtime
	Out  io.Writer
	Mode LaunchMode
	Lim  Limits

	// Workers is the number of host goroutines used to execute the
	// threads of each kernel launch; 0 means GOMAXPROCS. Output, machine
	// statistics, and faults are identical for every worker count.
	Workers int

	// RaceCheck enables the write-set race detector: each kernel
	// thread's store intervals are recorded and intersected after the
	// launch barrier, and overlapping writes from distinct threads are
	// reported in Races. Detection is independent of the worker count
	// (it works even with Workers=1).
	RaceCheck bool
	// Races accumulates race detector findings across launches.
	Races []RaceFinding

	// code is the module's lowered form, shared read-only with every
	// other interpreter of the same module (see lower.go).
	code *code

	// globalAddr holds, per address space, each global's address, indexed
	// like Mod.Globals. image holds, per address space, every function's
	// initial frame with the global addresses of that space filled in.
	globalAddr [2][]uint64
	image      [2][]uint64

	stepLimit  int64
	depthLimit int

	// stepsTaken is the shared step pool: contexts draw batches from it
	// (see exec.takeSteps) so the MaxSteps limit is enforced across all
	// workers without an atomic operation per instruction.
	stepsTaken atomic.Int64

	// ctx/done carry the optional cancellation signal (SetContext).
	// done is cached so the poll is one channel select; a nil done channel
	// never delivers, so the uncanceled default costs only the select
	// itself — and only once per stepBatch refill.
	ctx  context.Context
	done <-chan struct{}

	// root executes CPU code; workers execute kernel thread chunks, which
	// they claim from grid, the launch in progress.
	root    *exec
	workers []*exec
	grid    gridRun
	// lineAcc is bookLineOps' scratch, kept so a launch reuses it.
	lineAcc []lineOps
}

// New prepares an interpreter for the module: it lowers the module to
// flat code if no interpreter has yet (the result is kept on the module,
// so this happens once however many runs share it), loads globals into
// both memory spaces, registers them with the runtime, and seeds the RNG.
// When mach keeps its record (Machine.KeepLog), the interpreter notes in
// it every launch's simulated ops by source line (after each launch
// barrier) and every cgcm.* runtime call with the verb position it began
// at, which the log's replay times on the simulated clock; without a
// record the kernel hot path does no such work and allocates nothing for
// it.
// Module load is fallible: a bad global initializer is a typed error, and
// under fault injection the device regions for globals may fail to
// allocate — the runtime then degrades to CPU fallback before main runs,
// which is still a successful load.
func New(mod *ir.Module, mach *machine.Machine, rt *runtime.Runtime, out io.Writer) (*Interp, error) {
	in := new(Interp)
	if err := in.Reset(mod, mach, rt, out); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset prepares the interpreter for a run of mod exactly as New does,
// keeping only host memory: its execution contexts with their frame
// stacks, scratch arenas and inline caches, cleared, and the slices it
// fills. Races are left to whoever read them. mach and rt must be fresh
// or just reset.
func (in *Interp) Reset(mod *ir.Module, mach *machine.Machine, rt *runtime.Runtime, out io.Writer) error {
	code := lowered(mod)
	if code == nil {
		return &Error{Fn: "module load", Msg: "internal: module could not be lowered"}
	}
	*in = Interp{
		Mod: mod, Mach: mach, RT: rt, Out: out,
		Lim:        DefaultLimits,
		code:       code,
		globalAddr: [2][]uint64{resize(in.globalAddr[0], len(mod.Globals)), resize(in.globalAddr[1], len(mod.Globals))},
		image:      [2][]uint64{resize(in.image[0], len(code.image)), resize(in.image[1], len(code.image))},
		root:       in.root,
		workers:    in.workers,
		grid:       gridRun{outs: in.grid.outs[:0], faults: in.grid.faults[:0]},
		lineAcc:    in.lineAcc[:0],
	}
	for i, g := range mod.Globals {
		base := mach.Alloc(machine.CPU, g.Size, code.labels[i][0])
		if base == 0 {
			return &Error{Fn: "module load", Msg: fmt.Sprintf("global %s: %d bytes do not fit in the address space", g.Name, g.Size)}
		}
		if g.Init != nil {
			if err := mach.WriteBytes(base, g.Init); err != nil {
				return &Error{Fn: "module load", Msg: "global " + g.Name + " init: " + err.Error(), Err: err}
			}
		}
		dev := rt.AllocDeviceGlobal(base, g.Size, g.Name, code.labels[i][1])
		in.globalAddr[machine.CPU][i], in.globalAddr[machine.GPU][i] = base, dev
		rt.DeclareGlobal(g.Name, base, g.Size, g.ReadOnly, dev)
	}
	for space, image := range in.image {
		copy(image, code.image)
		for _, fix := range code.fixes {
			image[fix.pos] = in.globalAddr[space][fix.global]
		}
	}
	if in.root == nil {
		in.root = &exec{in: in}
	}
	for _, ex := range in.workers {
		ex.reset(code.numIC)
	}
	in.root.reset(code.numIC)
	in.root.out, in.root.rng, in.root.image = out, 0x9E3779B97F4A7C15, in.image[machine.CPU]
	return nil
}

// reset returns the context to the state it was made in, keeping its
// memory: the frame stack, the scratch arena and the inline caches,
// cleared (made for code with numIC memory instructions: a worker's at its
// first launch), and the slices it appends to.
func (ex *exec) reset(numIC int32) {
	clear(ex.stack)
	clear(ex.arena)
	clear(ex.ic)
	ic := ex.ic
	if len(ic) != int(numIC) {
		ic = nil
		if !ex.worker {
			ic = make([]segCache, numIC)
		}
	}
	*ex = exec{
		in: ex.in, worker: ex.worker, id: ex.id,
		stack: ex.stack, ic: ic, arena: ex.arena,
		allocas: ex.allocas[:0], scratchSegs: ex.scratchSegs[:0], args: ex.args[:0],
		insp: ex.insp, race: ex.race,
	}
}

// SetContext attaches a cancellation context to the interpreter. When
// ctx is canceled (deadline, client disconnect), the run aborts with a
// typed *CancelError at the next step-batch refill — every stepBatch
// instructions on every worker — or at the next kernel-launch boundary,
// whichever comes first. A nil ctx (the default) disables the checks.
// Must be called before Run; it must not change during a run.
func (in *Interp) SetContext(ctx context.Context) {
	if ctx == nil {
		in.ctx, in.done = nil, nil
		return
	}
	in.ctx = ctx
	in.done = ctx.Done()
}

// interrupted polls the cancellation signal without blocking. Safe to
// call from worker goroutines: in.done is written once before Run.
func (in *Interp) interrupted() bool {
	select {
	case <-in.done:
		return true
	default:
		return false
	}
}

// cancelCause returns the context's error when it has fired, nil
// otherwise (including when no context is attached).
func (in *Interp) cancelCause() error {
	if in.ctx == nil {
		return nil
	}
	return in.ctx.Err()
}

// checkCancel returns the typed cancellation error when the attached
// context has fired; fn names the boundary for the message.
func (in *Interp) checkCancel(fn string) error {
	if cause := in.cancelCause(); cause != nil {
		return &CancelError{Fn: fn, Cause: cause}
	}
	return nil
}

// Steps reports how many instruction steps the run has executed. Contexts
// draw steps from a shared pool in batches, so mid-run the value may
// overcount live work by at most stepBatch per context; every context
// returns its unused remainder when it finishes, so after Run the count
// is exact.
func (in *Interp) Steps() int64 { return in.stepsTaken.Load() }

// Run executes __cgcm_init (if present) then main, and finally syncs the
// machine. It returns main's exit value.
func (in *Interp) Run() (int64, error) {
	in.stepLimit = in.maxSteps()
	in.depthLimit = in.maxDepth()
	// Whatever way the run ends, the root context hands back the unused
	// part of its last step batch, so Steps counts steps, not draws.
	defer func() {
		in.returnSteps(in.root.budget)
		in.root.budget = 0
	}()
	if in.code.initFn >= 0 {
		if _, err := in.runRoot(in.code.initFn); err != nil {
			return 0, in.failed(err)
		}
	}
	if in.code.mainFn < 0 {
		return 0, &Error{Fn: "main", Msg: "module has no main"}
	}
	ret, err := in.runRoot(in.code.mainFn)
	if err != nil {
		return 0, in.failed(err)
	}
	in.root.flushOps()
	in.Mach.Sync()
	return int64(ret), nil
}

// failed ends a run that err stopped. The root context's ops since its
// last flush are work the run did (faultAt has given back the unexecuted
// tail), so the machine is charged them before the failure is noted where
// an exported trace shows the run ended.
func (in *Interp) failed(err error) error {
	in.root.flushOps()
	in.Mach.Note(&trace.Event{Kind: trace.EvRunError, Label: err.Error()}, in.Mach.Pos())
	return err
}

// runRoot runs one of the module's entry functions on the root context.
// A Go panic below it — a bug in the interpreter, or in the machine or
// runtime it drives — becomes a typed execution error, as runThread
// does for kernel threads: it may fail the run, never the process
// serving it.
func (in *Interp) runRoot(fn int32) (ret uint64, err error) {
	fc := &in.code.funcs[fn]
	defer func() {
		if p := recover(); p != nil {
			err = &Error{Fn: fc.name, Msg: fmt.Sprintf("internal: panic in interpreter: %v", p)}
		}
	}()
	in.root.prepare(fc, 0)
	return in.root.invoke(fc, 0)
}

func (in *Interp) maxDepth() int {
	if in.Lim.MaxCallDepth > 0 {
		return in.Lim.MaxCallDepth
	}
	return DefaultLimits.MaxCallDepth
}

func (in *Interp) maxSteps() int64 {
	if in.Lim.MaxSteps > 0 {
		return in.Lim.MaxSteps
	}
	return DefaultLimits.MaxSteps
}
