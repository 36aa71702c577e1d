// Package cgcm is a from-scratch Go reproduction of CGCM, the CPU-GPU
// Communication Manager of Jablin et al., "Automatic CPU-GPU
// Communication Management and Optimization" (PLDI 2011).
//
// CGCM is the first fully automatic system for managing (copying the
// right allocation units between divided CPU and GPU memories) and
// optimizing (turning cyclic communication patterns into acyclic ones)
// CPU-GPU communication. This module contains the complete stack the
// paper describes, rebuilt on a simulated machine:
//
//   - a mini-C front end (lexer, parser, type checker) with CUDA-style
//     __global__ kernels and k<<<grid,block>>>(...) launches;
//   - a register IR with the analyses the passes need (dominators, natural
//     loops, call graph, Andersen points-to, mod/ref, invariance);
//   - the CGCM run-time library (§3): allocation-unit tracking in a
//     self-balancing tree, map/unmap/release and their array variants,
//     reference counting, and the kernel epoch;
//   - communication management (§4) driven by use-based type inference;
//   - the communication optimizations (§5): map promotion, alloca
//     promotion, and glue kernels, iterated to convergence;
//   - a simple DOALL parallelizer (§6.1) that outlines parallel loops
//     into kernels;
//   - a simulated CPU+GPU machine with divided memories and a calibrated
//     analytic timing model, replacing the paper's GTX 480 testbed;
//   - the idealized inspector-executor comparator (§6.3);
//   - mini-C ports of the paper's 24 benchmarks and a harness that
//     regenerates every table and figure of the evaluation.
//
// # Quick start
//
//	rep, err := cgcm.CompileAndRun("prog.c", source, cgcm.Options{
//		Strategy: cgcm.CGCMOptimized,
//	})
//	fmt.Println(rep.Output, rep.Stats.Wall)
//
// See the examples/ directory for runnable programs and cmd/ for the
// compiler driver (cgcmc), the runner (cgcmrun), and the evaluation
// harness (cgcmbench).
package cgcm

import (
	"context"
	"io"

	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	"cgcm/internal/metrics"
	"cgcm/internal/prof"
	"cgcm/internal/trace"
)

// Strategy selects parallelization and communication handling — the four
// systems the paper's Figure 4 compares.
type Strategy = core.Strategy

// Strategies.
const (
	// Sequential runs the program unmodified on the simulated CPU.
	Sequential = core.Sequential
	// InspectorExecutor uses the idealized inspector-executor protocol.
	InspectorExecutor = core.InspectorExecutor
	// CGCMUnoptimized inserts management around every launch (cyclic).
	CGCMUnoptimized = core.CGCMUnoptimized
	// CGCMOptimized additionally runs glue kernels, alloca promotion, and
	// map promotion (acyclic).
	CGCMOptimized = core.CGCMOptimized
)

// Options configures compilation and execution.
type Options = core.Options

// Report is the outcome of running a program: its output, simulated
// machine statistics, and per-pass activity counters.
type Report = core.Report

// Program is a compiled program ready to run on fresh machines.
type Program = core.Program

// RaceFinding reports two kernel threads writing overlapping bytes
// (collected in Report.Races when Options.RaceCheck is set).
type RaceFinding = interp.RaceFinding

// CostModel holds the simulated machine's timing parameters.
type CostModel = machine.CostModel

// DefaultCostModel returns the calibrated model approximating the
// paper's Core 2 Quad + GTX 480 platform at reproduction scale.
func DefaultCostModel() CostModel { return machine.DefaultCostModel() }

// Pass names an ablatable compilation pass for Options.Ablate.
type Pass = core.Pass

// Ablatable passes.
const (
	// PassDOALL is the parallelizer.
	PassDOALL = core.PassDOALL
	// PassGlueKernel is the glue-kernel enabling transformation (§5.3).
	PassGlueKernel = core.PassGlueKernel
	// PassAllocaPromo is alloca promotion (§5.2).
	PassAllocaPromo = core.PassAllocaPromo
	// PassMapPromo is map promotion (§5.1).
	PassMapPromo = core.PassMapPromo
	// PassOverlap is the communication-overlap pass, scheduled under
	// Options.Async.
	PassOverlap = core.PassOverlap
)

// PassSet is a set of passes to ablate; it implements flag.Value, so it
// can back an -ablate CLI flag directly.
type PassSet = core.PassSet

// Tracer collects structured observability spans. Set one in
// Options.Tracer to receive compile-phase spans and, after each Run, that
// run's machine, runtime, and fault spans.
type Tracer = trace.Tracer

// NewTracer returns an empty Tracer ready to use as Options.Tracer.
func NewTracer() *Tracer { return trace.New() }

// Span is one structured timeline event from a traced run.
type Span = trace.Span

// PhaseSpan records one compile phase with host wall time and activity.
type PhaseSpan = trace.PhaseSpan

// Ledger is the per-allocation-unit communication ledger found in
// Report.Comm: per-unit transfer counts and the cyclic/acyclic pattern
// classification of §5.
type Ledger = trace.Ledger

// UnitStats is one allocation unit's row in the Ledger.
type UnitStats = trace.UnitStats

// Communication patterns.
const (
	// PatternNone means the unit never crossed the bus.
	PatternNone = trace.PatternNone
	// PatternAcyclic means transfers happen once, outside loops.
	PatternAcyclic = trace.PatternAcyclic
	// PatternCyclic means the unit ping-pongs between memories.
	PatternCyclic = trace.PatternCyclic
)

// WriteChromeTrace serializes a Tracer's spans in Chrome trace-event
// JSON, viewable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Tracer) error { return trace.WriteChrome(w, t) }

// Profile is the exact execution profile produced when Options.Profile
// is set: per-source-line simulated GPU ops, per-launch-site kernel
// walls, per-allocation-unit transfer bytes, and runtime-library time.
// Render with its WriteFlat (top-N table) or WriteFolded (flamegraph
// folded-stack) methods.
type Profile = prof.Profile

// MetricsRegistry is a registry of named counters, gauges, and
// histograms; set one in Options.Metrics to collect machine, runtime,
// and compiler instrumentation across runs.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a frozen, sorted, JSON-ready view of a registry,
// found in Report.Metrics after each run.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry returns an empty registry ready to use as
// Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// FaultSpec is a deterministic device fault-injection schedule for
// Options.FaultSpec: seeded probabilities and exact call indices for
// alloc/transfer/launch faults. Parse one with ParseFaultSpec.
type FaultSpec = faultinject.Spec

// DeviceError is the typed device fault the machine raises and the
// runtime absorbs; it matches errors.Is/errors.As against the
// faultinject sentinels.
type DeviceError = faultinject.DeviceError

// ParseFaultSpec parses a fault-injection spec like
// "seed=7,htod=0.5,alloc@3,fail=launch@2,max=10" (see the faultinject
// package for the grammar).
func ParseFaultSpec(text string) (*FaultSpec, error) { return faultinject.ParseSpec(text) }

// RunConfig carries per-run overrides for Program.RunWith: a
// cancellation context, a per-run metrics registry, and a per-tenant
// device-memory governor.
type RunConfig = core.RunConfig

// MemGovernor arbitrates device-memory reservations across runs; see
// NewQuotaPool for the per-tenant implementation.
type MemGovernor = machine.MemGovernor

// QuotaPool tracks per-tenant device-memory quotas and usage across
// concurrent runs.
type QuotaPool = machine.QuotaPool

// NewQuotaPool returns a quota pool whose tenants default to the given
// quota in bytes (0 = unlimited).
func NewQuotaPool(defaultQuota int64) *QuotaPool { return machine.NewQuotaPool(defaultQuota) }

// CancelError is the typed error a canceled or deadline-expired run
// returns; errors.Is(err, context.DeadlineExceeded) works through it.
type CancelError = interp.CancelError

// Compile parses, checks, lowers, parallelizes, and transforms a mini-C
// program according to opts.
func Compile(name, src string, opts Options) (*Program, error) {
	return core.Compile(name, src, opts)
}

// CompileContext is Compile with cancellation between phases.
func CompileContext(ctx context.Context, name, src string, opts Options) (*Program, error) {
	return core.CompileContext(ctx, name, src, opts)
}

// CompileAndRun compiles src and executes it on a fresh simulated
// machine.
func CompileAndRun(name, src string, opts Options) (*Report, error) {
	return core.CompileAndRun(name, src, opts)
}

// CompileAndRunContext is CompileAndRun with cancellation threaded
// through both compilation and execution: a fired deadline or canceled
// caller aborts the run at the next kernel-launch boundary with a typed
// *CancelError and a partial Report.
func CompileAndRunContext(ctx context.Context, name, src string, opts Options) (*Report, error) {
	return core.CompileAndRunContext(ctx, name, src, opts)
}
