// Package core assembles the CGCM system: the mini-C front end, the DOALL
// parallelizer, communication management, the communication optimization
// passes, and the simulated machine, behind one Pipeline API (Figure 3 of
// the paper).
package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cgcm/internal/analysis"
	"cgcm/internal/doall"
	"cgcm/internal/faultinject"
	"cgcm/internal/interp"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/machine"
	"cgcm/internal/metrics"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/passes/allocapromo"
	"cgcm/internal/passes/commmgmt"
	"cgcm/internal/passes/constfold"
	"cgcm/internal/passes/gluekernel"
	"cgcm/internal/passes/mappromo"
	"cgcm/internal/passes/overlap"
	"cgcm/internal/prof"
	"cgcm/internal/remarks"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// Strategy selects how a program is parallelized and how its CPU-GPU
// communication is handled — the four systems Figure 4 compares.
type Strategy int

// Strategies.
const (
	// Sequential runs the program unmodified on the CPU.
	Sequential Strategy = iota
	// InspectorExecutor parallelizes DOALL loops and manages communication
	// with the idealized inspector-executor protocol (§6.3).
	InspectorExecutor
	// CGCMUnoptimized parallelizes DOALL loops and inserts unoptimized
	// CGCM management (map/unmap/release at every launch).
	CGCMUnoptimized
	// CGCMOptimized additionally runs the communication optimizations:
	// glue kernels, alloca promotion, then map promotion (§5.4 ordering).
	CGCMOptimized
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case InspectorExecutor:
		return "inspector-executor"
	case CGCMUnoptimized:
		return "cgcm-unoptimized"
	case CGCMOptimized:
		return "cgcm-optimized"
	}
	return "?"
}

// Pass names an ablatable compilation pass.
type Pass string

// Ablatable passes.
const (
	// PassDOALL is the parallelizer; ablate it for manually parallelized
	// inputs that already contain launches.
	PassDOALL Pass = "doall"
	// PassGlueKernel is the glue-kernel enabling transformation (§5.3).
	PassGlueKernel Pass = "gluekernel"
	// PassAllocaPromo is alloca promotion (§5.2).
	PassAllocaPromo Pass = "allocapromo"
	// PassMapPromo is map promotion itself (§5.1).
	PassMapPromo Pass = "mappromo"
	// PassOverlap is the communication-overlap pass: it rewrites map/unmap
	// call sites to their asynchronous stream variants where the host
	// provably does not touch the unit before the next synchronization
	// point. Scheduled only when Options.Async is set.
	PassOverlap Pass = "overlap"
)

// pass is one row of the compile pipeline behind the front end.
type pass struct {
	// name is the phase name, and the pass's spelling in -ablate and
	// -remarks-pass.
	name Pass
	// from is the least Strategy that schedules the pass.
	from Strategy
	// async marks a pass scheduled only under Options.Async.
	async bool
	// ablatable admits the pass to a PassSet.
	ablatable bool
	// remarks marks a pass that reports through the remarks collector.
	remarks bool
	// note labels the phase's Activity.
	note string
	// run applies the pass to p.Module and returns the phase's Activity.
	run func(p *Program, rc *remarks.Collector) (activity int, err error)
}

// pipeline is the pass schedule, in order; CompileContext walks it once.
// Constant folding is semantics-preserving and runs under every strategy,
// so all four systems execute identical arithmetic; it also lets the
// parallelizer compute static trip counts from literal-expression bounds.
// Inspector-executor manages communication at run time, so nothing from
// commmgmt on is scheduled for it. §5.4: "the glue kernel optimization
// runs before alloca promotion, and map promotion runs last." The overlap
// pass runs after map promotion has settled where the runtime calls live,
// and only when the caller asked for asynchronous communication; it
// renames provably safe map/unmap sites to their stream variants.
var pipeline = [...]pass{
	{name: "constfold", from: Sequential, note: "instructions folded",
		run: func(p *Program, _ *remarks.Collector) (int, error) {
			res, err := constfold.Run(p.Module)
			if err != nil {
				return 0, err
			}
			return res.Folded + res.Simplified, nil
		}},
	{name: PassDOALL, from: InspectorExecutor, ablatable: true, remarks: true, note: "loops parallelized",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := doall.RunWith(p.Module, p.pointsTo(), rc)
			if err != nil {
				return 0, err
			}
			p.doallFound = res.LoopsFound
			return res.LoopsParallelized, nil
		}},
	{name: "commmgmt", from: CGCMUnoptimized, remarks: true, note: "maps inserted",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := commmgmt.RunWith(p.Module, p.pointsTo(), rc)
			if err != nil {
				return 0, err
			}
			return res.MapsInserted, nil
		}},
	{name: PassGlueKernel, from: CGCMOptimized, ablatable: true, remarks: true, note: "kernels outlined",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := gluekernel.RunWith(p.Module, p.pointsTo(), rc)
			if err != nil {
				return 0, err
			}
			return res.Outlined, nil
		}},
	{name: PassAllocaPromo, from: CGCMOptimized, ablatable: true, remarks: true, note: "allocas promoted",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := allocapromo.Run(p.Module, rc)
			if err != nil {
				return 0, err
			}
			if res.Promoted > 0 {
				p.pt = nil // allocation sites moved: the next pass rebuilds
			}
			return res.Promoted, nil
		}},
	{name: PassMapPromo, from: CGCMOptimized, ablatable: true, remarks: true, note: "maps promoted",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := mappromo.RunWith(p.Module, p.pointsTo(), rc)
			if err != nil {
				return 0, err
			}
			return res.Promotions, nil
		}},
	{name: PassOverlap, from: CGCMUnoptimized, async: true, ablatable: true, remarks: true, note: "sites moved to streams",
		run: func(p *Program, rc *remarks.Collector) (int, error) {
			res, err := overlap.RunWith(p.Module, p.pointsTo(), rc)
			if err != nil {
				return 0, err
			}
			return res.Rewritten(), nil
		}},
}

// passNames lists the pipeline passes keep admits, in pipeline order.
func passNames(keep func(*pass) bool) string {
	var names []string
	for i := range pipeline {
		if keep(&pipeline[i]) {
			names = append(names, string(pipeline[i].name))
		}
	}
	return strings.Join(names, ", ")
}

// AblatableNames lists the valid PassSet members, for flag help.
func AblatableNames() string {
	return passNames(func(ps *pass) bool { return ps.ablatable })
}

// RemarkPassNames lists the values Remark.Pass takes — every pass that
// reports through the collector, then the run-time source — for flag help.
func RemarkPassNames() string {
	return passNames(func(ps *pass) bool { return ps.remarks }) + ", runtime"
}

// PassSet is a set of passes to ablate. It implements flag.Value, so CLI
// flags can say -ablate gluekernel,mappromo; repeated flags accumulate.
type PassSet map[Pass]bool

// Has reports membership (nil-safe).
func (s PassSet) Has(p Pass) bool { return s[p] }

// String renders the set as a sorted comma-separated list (flag.Value).
func (s PassSet) String() string {
	names := make([]string, 0, len(s))
	for p, on := range s {
		if on {
			names = append(names, string(p))
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Set parses a comma-separated pass list into the set (flag.Value).
// Unknown pass names are an error; "none" clears the set.
func (s *PassSet) Set(v string) error {
	if *s == nil {
		*s = make(PassSet)
	}
	for _, name := range strings.Split(v, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "none" {
			clear(*s)
			continue
		}
		ok := false
		for i := range pipeline {
			if ps := &pipeline[i]; ps.ablatable && string(ps.name) == name {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown pass %q (valid: %s)", name, AblatableNames())
		}
		(*s)[Pass(name)] = true
	}
	return nil
}

// Options configures a compilation.
type Options struct {
	Strategy Strategy
	// Cost overrides the machine cost model; nil uses the default.
	Cost *machine.CostModel
	// Tracer, when non-nil, enables structured observability: it receives
	// compile-phase spans from Compile and, from each Run, the spans
	// rendered from that run's event log, appended in one step after the
	// run so concurrent runs never interleave. Export with trace.WriteChrome.
	Tracer *trace.Tracer
	// Ablate names optimization passes to skip, for ablation studies.
	Ablate PassSet
	// DumpWriter, when set, receives IR dumps after each phase.
	DumpWriter io.Writer
	// Limits overrides interpreter limits.
	Limits *interp.Limits
	// Workers sets the number of host goroutines simulating GPU threads
	// per kernel launch; 0 means GOMAXPROCS. Results are identical for
	// every worker count.
	Workers int
	// RaceCheck enables the kernel write-set race detector; findings are
	// collected in Report.Races.
	RaceCheck bool
	// Profile enables the exact source-level profiler: Report.Profile
	// receives per-line simulated GPU op attribution, per-launch-site
	// kernel walls, per-unit transfer bytes, and runtime-library time,
	// folded from the run's event log after the run.
	Profile bool
	// Metrics, when non-nil, receives counter/gauge/histogram
	// instrumentation from the machine, the runtime library, and the
	// compiler (see DESIGN.md for the name catalogue). The registry may
	// be shared across runs; counters and histograms accumulate.
	Metrics *metrics.Registry
	// Remarks enables the optimization-remarks engine: every pass emits
	// Applied/Missed/Analysis remarks during Compile (Program.Remarks),
	// and each Run adds Runtime remarks for allocation units the
	// communication ledger saw stay cyclic, cross-referencing the
	// compile-time blocking reason (Report.Remarks).
	Remarks bool
	// GPUMemBytes caps the simulated device memory (0 = unlimited). A
	// finite device makes Map fallible: the runtime evicts
	// least-recently-released units under pressure and degrades to CPU
	// fallback when the working set truly does not fit. Output stays
	// bit-identical to the unlimited-memory run.
	GPUMemBytes int64
	// FaultSpec, when non-nil, attaches a deterministic device
	// fault-injection plan to each Run (parse one with
	// faultinject.ParseSpec). Injected faults are absorbed by the
	// runtime's retry/evict/degrade ladder; program output stays
	// bit-identical to the fault-free run.
	FaultSpec *faultinject.Spec
	// Async enables overlapped communication: the overlap pass rewrites
	// provably safe map/unmap sites to asynchronous stream copies, and each
	// Run arms the runtime's upload/flush streams. Program output, the
	// ledger's copy counts, and remarks are identical with Async on or off
	// (only wall time and the ledger's overlapped-bytes column change).
	Async bool
}

// CostModel returns the cost model a run under o uses: Cost, or the
// default.
func (o Options) CostModel() machine.CostModel {
	if o.Cost != nil {
		return *o.Cost
	}
	return machine.DefaultCostModel()
}

// ablated reports whether a pass is disabled.
func (o *Options) ablated(p Pass) bool { return o.Ablate.Has(p) }

// Report is the outcome of running a compiled program.
type Report struct {
	Strategy Strategy
	Output   string
	Exit     int64

	Stats   machine.Stats
	RTStats runtimelib.Stats

	// Kernels is the number of distinct GPU kernels in the final module.
	Kernels int
	// LaunchSites is the number of launch instructions.
	LaunchSites int
	// DOALLLoopsFound/Parallelized report parallelizer activity.
	DOALLLoopsFound        int
	DOALLLoopsParallelized int
	// Promotions reports map promotion activity (optimized strategy).
	Promotions int
	// GlueKernels reports glue kernel outlinings.
	GlueKernels int
	// AllocaPromotions reports alloca promotion activity.
	AllocaPromotions int
	// OverlapSites reports map/unmap sites the overlap pass moved to
	// asynchronous stream copies (0 unless Options.Async).
	OverlapSites int

	// Races holds write-set race findings (when Options.RaceCheck).
	Races []interp.RaceFinding

	// Comm is the per-allocation-unit communication ledger (always
	// populated): which units crossed the bus, how often, and whether
	// each unit's pattern was cyclic or acyclic.
	Comm trace.Ledger
	// Phases records the compile phases with host wall time and activity.
	Phases []trace.PhaseSpan
	// Spans holds this run's structured timeline spans (exactly when
	// Options.Tracer is set).
	Spans []trace.Span
	// Verbs holds this run's timed machine calls, in call order (exactly
	// when Spans is set): machine.Retime replays them under any cost model.
	Verbs []machine.Verb
	// Profile is the exact execution profile (when Options.Profile).
	Profile *prof.Profile
	// Remarks holds the compile-time optimization remarks plus this
	// run's Runtime remarks, canonically sorted (when Options.Remarks).
	Remarks []remarks.Remark
	// Metrics is the frozen registry snapshot taken after this run (when
	// Options.Metrics is set).
	Metrics *metrics.Snapshot
}

// Program is a compiled mini-C program ready to run. Run is read-only on
// the Program, so one compiled Program may run concurrently on any
// number of fresh simulated machines.
type Program struct {
	Module *ir.Module
	Opts   Options

	name string
	// doallFound is the one pass count no phase records.
	doallFound int
	// pt is the points-to solution the passes share while they run.
	pt *analysis.PointsTo

	kernels     int
	launchSites int
	phases      []trace.PhaseSpan
	remarks     []remarks.Remark
}

// Kernels reports the number of distinct GPU kernels in the compiled
// module, counted once at the end of Compile.
func (p *Program) Kernels() int { return p.kernels }

// LaunchSites reports the number of launch instructions in the compiled
// module, counted once at the end of Compile.
func (p *Program) LaunchSites() int { return p.launchSites }

// Phases returns the compile-phase spans recorded during Compile.
func (p *Program) Phases() []trace.PhaseSpan { return p.phases }

// activity is the Activity the pass's compile phase recorded: what the
// Report's per-pass counts are (0 when the pass was not scheduled).
func (p *Program) activity(name Pass) int {
	for i := range p.phases {
		if p.phases[i].Name == string(name) {
			return p.phases[i].Activity
		}
	}
	return 0
}

// pointsTo returns the module's points-to solution, building it when no
// pass has yet, or allocapromo dropped it.
func (p *Program) pointsTo() *analysis.PointsTo {
	if p.pt == nil {
		p.pt = analysis.BuildPointsTo(p.Module)
	}
	return p.pt
}

// Remarks returns the compile-time optimization remarks, canonically
// sorted (empty unless Options.Remarks was set).
func (p *Program) Remarks() []remarks.Remark { return p.remarks }

// Compile parses, checks, lowers, and transforms src according to opts.
// All module mutation — including instruction renumbering and the
// kernel/launch-site census — happens here, leaving Run side-effect-free.
func Compile(name, src string, opts Options) (*Program, error) {
	return CompileContext(context.Background(), name, src, opts)
}

// CompileContext is Compile with cancellation: the context is checked
// before every compilation phase, so a canceled caller (request
// deadline, client disconnect) pays for at most the phase it was in.
// The returned error wraps the context's error, so errors.Is sees it.
func CompileContext(ctx context.Context, name, src string, opts Options) (prog *Program, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer recoverInternal("compile", &err)
	var phases []trace.PhaseSpan
	// begin opens a phase, unless the context is done: compilation is all
	// host work, so cancellation is polled at every phase boundary and
	// not inside the phases.
	begin := func(phase string) (func(activity int, note string), error) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("compile %s: canceled before %s: %w", name, phase, cerr)
		}
		start := time.Now()
		return func(activity int, note string) {
			phases = append(phases, trace.PhaseSpan{
				Name:     phase,
				HostNS:   time.Since(start).Nanoseconds(),
				Activity: activity,
				Note:     note,
			})
		}, nil
	}

	end, err := begin("parse")
	if err != nil {
		return nil, err
	}
	file, perrs := parser.Parse(name, src)
	if len(perrs) > 0 {
		return nil, joinErrors("parse", perrs)
	}
	end(len(file.Decls), "")

	if end, err = begin("sema"); err != nil {
		return nil, err
	}
	info, serrs := sema.Check(file)
	if len(serrs) > 0 {
		return nil, joinErrors("check", serrs)
	}
	end(0, "")

	if end, err = begin("irbuild"); err != nil {
		return nil, err
	}
	mod, err := irbuild.Build(info)
	if err != nil {
		return nil, err
	}
	end(len(mod.Funcs), "functions")

	p := &Program{Module: mod, Opts: opts, name: name}
	var rc *remarks.Collector
	if opts.Remarks {
		rc = remarks.NewCollector(name)
	}
	dump := func(phase string) {
		if opts.DumpWriter != nil {
			fmt.Fprintf(opts.DumpWriter, "=== after %s ===\n%s\n", phase, mod)
		}
	}
	dump("irbuild")
	for i := range pipeline {
		ps := &pipeline[i]
		if opts.Strategy < ps.from || (ps.async && !opts.Async) || (ps.ablatable && opts.ablated(ps.name)) {
			continue
		}
		if end, err = begin(string(ps.name)); err != nil {
			return nil, err
		}
		activity, err := ps.run(p, rc)
		if err != nil {
			return nil, err
		}
		end(activity, ps.note)
		dump(string(ps.name))
	}

	p.remarks = rc.Remarks()
	p.pt = nil
	mod.Renumber()
	for _, f := range mod.Funcs {
		if f.Kernel {
			p.kernels++
		}
		f.Instrs(func(instr *ir.Instr) {
			if instr.Op == ir.OpLaunch {
				p.launchSites++
			}
		})
	}
	p.phases = phases
	opts.Tracer.RecordPhases(phases...)
	// Per-phase compile metrics: host wall time and activity count,
	// named compile.<phase>.host_ns / compile.<phase>.activity.
	// Gauges (not counters) so repeated compiles report the latest
	// compile, matching what Phases shows.
	for _, ph := range phases {
		opts.Metrics.Gauge("compile." + ph.Name + ".host_ns").Set(float64(ph.HostNS))
		opts.Metrics.Gauge("compile." + ph.Name + ".activity").Set(float64(ph.Activity))
	}
	return p, nil
}

// RunConfig carries per-run overrides for RunWith, the per-request
// surface of the multi-tenant service: the compiled Program (and its
// baked-in Options) is shared and immutable, while the context, the
// metrics registry, and the device-memory governor differ per request.
type RunConfig struct {
	// Ctx, when non-nil, cancels the run: a fired deadline or client
	// disconnect aborts execution at the next kernel-launch boundary (or
	// within one step batch inside a kernel) with a typed
	// *interp.CancelError. The partial Report is still returned.
	Ctx context.Context
	// Metrics, when non-nil, overrides Options.Metrics for this run, so
	// one shared Program can report into per-tenant registries.
	Metrics *metrics.Registry
	// MemGovernor, when non-nil, is attached to this run's machine: every
	// device allocation reserves against it first, so a per-tenant quota
	// can deny device memory. Denials look like capacity OOM, driving the
	// runtime's own evict-then-degrade ladder — output stays identical.
	// Attaching a governor enables the resilient runtime even when the
	// run has no explicit capacity or fault plan.
	MemGovernor machine.MemGovernor
}

// Run executes the compiled program on a fresh simulated machine. It does
// not mutate the Program, so concurrent Run calls on one Program are safe
// and produce identical Reports.
func (p *Program) Run() (*Report, error) { return p.RunWith(RunConfig{}) }

// RunContext is Run with cancellation; see RunConfig.Ctx.
func (p *Program) RunContext(ctx context.Context) (*Report, error) {
	return p.RunWith(RunConfig{Ctx: ctx})
}

// RunWith executes the program with per-run overrides. Like Run it is
// read-only on the Program, so concurrent RunWith calls are safe. When
// the run is canceled the error wraps *interp.CancelError and the
// returned Report carries the statistics accumulated so far.
func (p *Program) RunWith(rc RunConfig) (rep *Report, err error) {
	defer recoverInternal("run", &err)
	met := p.Opts.Metrics
	if rc.Metrics != nil {
		met = rc.Metrics
	}
	mach := machine.New(p.Opts.CostModel())
	// The timeline and the profile are read from the run's event log after
	// the run; the machine keeps the record it replays only when one of them
	// is wanted.
	if p.Opts.Tracer != nil || p.Opts.Profile {
		mach.KeepLog()
	}
	mach.Observe(met)
	rt := runtimelib.New(mach)
	// Fault model: a finite or fault-injected device flips the runtime
	// into resilient mode before module load, so even the device regions
	// of globals go through the evict/retry/degrade ladder. A per-run
	// memory governor (tenant quota) is another way the device can say
	// no, so it arms the same machinery.
	if p.Opts.GPUMemBytes > 0 {
		mach.SetGPUCapacity(p.Opts.GPUMemBytes)
	}
	if p.Opts.FaultSpec != nil && !p.Opts.FaultSpec.Empty() {
		mach.SetFaultPlan(p.Opts.FaultSpec.NewPlan())
	}
	if rc.MemGovernor != nil {
		mach.SetMemGovernor(rc.MemGovernor)
	}
	if p.Opts.GPUMemBytes > 0 || mach.FaultPlan() != nil || rc.MemGovernor != nil {
		rt.EnableResilience(runtimelib.DefaultResilience())
	}
	if p.Opts.Async {
		rt.EnableAsync()
	}
	var out bytes.Buffer
	in, err := interp.New(p.Module, mach, rt, &out)
	if err != nil {
		return nil, err
	}
	if p.Opts.Strategy == InspectorExecutor {
		in.Mode = interp.Inspector
	}
	if p.Opts.Limits != nil {
		in.Lim = *p.Opts.Limits
	}
	in.Workers = p.Opts.Workers
	in.RaceCheck = p.Opts.RaceCheck
	if rc.Ctx != nil {
		in.SetContext(rc.Ctx)
	}
	exit, err := in.Run()
	rep = &Report{
		Strategy:               p.Opts.Strategy,
		Output:                 out.String(),
		Exit:                   exit,
		Stats:                  mach.Stats(),
		RTStats:                rt.Stats(),
		Kernels:                p.kernels,
		LaunchSites:            p.launchSites,
		DOALLLoopsFound:        p.doallFound,
		DOALLLoopsParallelized: p.activity(PassDOALL),
		Promotions:             p.activity(PassMapPromo),
		GlueKernels:            p.activity(PassGlueKernel),
		AllocaPromotions:       p.activity(PassAllocaPromo),
		OverlapSites:           p.activity(PassOverlap),
		Races:                  in.Races,
		Comm:                   rt.Ledger.Ledger(),
		Phases:                 p.phases,
	}
	log := mach.Log() // a replay of the run's record: read it once
	if p.Opts.Tracer != nil {
		rep.Spans = trace.Spans(log)
		rep.Verbs = mach.Verbs()
		p.Opts.Tracer.Emit(rep.Spans...)
	}
	if p.Opts.Profile {
		rep.Profile = prof.FromLog(p.name, log)
	}
	if p.Opts.Remarks {
		rep.Remarks = withRuntimeRemarks(p.name, p.remarks, rep.Comm, rep.RTStats, rt.DegradeReason())
	}
	if met != nil {
		publishRun(met, rep.Stats, rep.RTStats, in.Steps(), mach.GPUMemPeak())
		rep.Metrics = met.Snapshot()
	}
	return rep, err
}

// publishRun adds one finished (or cancelled, or failed) run to the
// registry: the counters that mirror a Stats or RTStats field, by this
// name-to-field table and nowhere else, and the per-run gauges, which
// report the latest run (runtime.degraded included: it must fall back to
// 0 on a registry that outlives a degraded run). The machine feeds only
// the histograms while it runs; see DESIGN.md, "Accounting: one event
// stream, its folds".
func publishRun(m *metrics.Registry, st machine.Stats, rts runtimelib.Stats, steps, gpuMemPeak int64) {
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"runtime.map.calls", rts.Maps},
		{"runtime.unmap.calls", rts.Unmaps},
		{"runtime.release.calls", rts.Releases},
		{"runtime.htod.copies", rts.HtoDCopies},
		{"runtime.dtoh.copies", rts.DtoHCopies},
		{"runtime.epoch.skips", rts.EpochSkips},
		{"runtime.residency.skips", rts.ResidencySkips},
		{"runtime.evictions", rts.Evictions},
		{"runtime.retries", rts.Retries},
		{"runtime.rescue.copies", rts.RescueCopies},
		{"machine.kernel.launches", st.NumKernels},
		{"machine.faults.injected", st.InjectedFaults},
		{"machine.fallback.kernels", st.FallbackKernels},
		{"machine.xfer.overlapped_bytes", st.OverlappedBytes},
	} {
		m.Counter(c.name).Add(c.n)
	}
	m.Gauge("machine.wall_seconds").Set(st.Wall)
	m.Gauge("machine.cpu_ops").Set(float64(st.CPUOps))
	m.Gauge("machine.gpu_ops").Set(float64(st.GPUOps))
	m.Gauge("machine.stall_seconds").Set(st.StallTime)
	m.Gauge("machine.gpu_mem_peak_bytes").Set(float64(gpuMemPeak))
	m.Gauge("interp.steps").Set(float64(steps))
	m.Gauge("runtime.live_units").Set(float64(rts.LiveUnits))
	degraded := 0.0
	if rts.Degraded {
		degraded = 1
	}
	m.Gauge("runtime.degraded").Set(degraded)
}

// withRuntimeRemarks appends execution-time findings to the compile-time
// remarks: every allocation unit the ledger classified cyclic gets one
// Runtime remark naming its round trips and transfer epochs. When a
// compile-time Missed remark names the same unit (matched by allocation
// site), the Runtime remark echoes its reason, closing the loop between
// the observed ping-pong and why the optimizer could not remove it.
func withRuntimeRemarks(file string, compile []remarks.Remark, ledger trace.Ledger, rts runtimelib.Stats, degradeReason string) []remarks.Remark {
	out := make([]remarks.Remark, len(compile))
	copy(out, compile)
	// Fault-model findings: one remark per unit the runtime evicted under
	// device-memory pressure, and one remark when the device failed and
	// the run finished in CPU-fallback mode.
	for i := range ledger.Units {
		u := &ledger.Units[i]
		if u.Evictions == 0 {
			continue
		}
		out = append(out, remarks.Remark{
			Pass: "runtime", Kind: remarks.Runtime, Reason: remarks.ReasonDeviceOOM,
			File: file, Line: u.Line, Unit: u.Label(),
			Message: fmt.Sprintf(
				"allocation unit evicted from device memory %d time(s) under memory pressure; each re-map re-uploads %d bytes",
				u.Evictions, u.Size),
		})
	}
	if rts.Degraded {
		out = append(out, remarks.Remark{
			Pass: "runtime", Kind: remarks.Runtime, Reason: remarks.ReasonDeviceFailure,
			File: file,
			Message: fmt.Sprintf(
				"device failed (%s); %d kernel(s) ran on the CPU in fallback mode with identical output",
				degradeReason, rts.FallbackKernels),
		})
	}
	for i := range ledger.Units {
		u := &ledger.Units[i]
		if u.Pattern != trace.PatternCyclic {
			continue
		}
		r := remarks.Remark{
			Pass: "runtime",
			Kind: remarks.Runtime,
			File: file,
			Line: u.Line,
			Unit: u.Label(),
			Message: fmt.Sprintf(
				"allocation unit stayed cyclic: %d round trip(s) over %d transfer epoch(s), %d HtoD / %d DtoH copies",
				u.RoundTrips, u.TransferEpochs, u.HtoDCopies, u.DtoHCopies),
		}
		if blocked := remarks.Explain(compile, remarks.Missed, u.Name, u.Line, remarks.Blockers...); blocked != nil {
			r.Reason = blocked.Reason
			r.Message += fmt.Sprintf("; %s left it unpromoted (%s)", blocked.Pass, blocked.Reason)
		} else if applied := remarks.Explain(compile, remarks.Applied, u.Name, u.Line, remarks.Promoters...); applied != nil {
			r.Message += fmt.Sprintf("; %s promoted this unit — the residual round trip is inherent to the program's CPU-GPU data flow", applied.Pass)
		} else {
			r.Message += "; no compile-time remark names this unit (optimization ablated, or the pattern is inherent to the program)"
		}
		out = append(out, r)
	}
	remarks.Sort(out)
	return out
}

// CompileAndRun is the one-call convenience used by examples and tests.
func CompileAndRun(name, src string, opts Options) (*Report, error) {
	p, err := Compile(name, src, opts)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// CompileAndRunContext is CompileAndRun with cancellation threaded
// through both the compile phases and the run.
func CompileAndRunContext(ctx context.Context, name, src string, opts Options) (*Report, error) {
	p, err := CompileContext(ctx, name, src, opts)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx)
}

// recoverInternal converts a typed ir.InternalError panic (a compiler
// bug, not a user-program error) into an ordinary returned error, so no
// panic escapes Compile or Program.Run. Other panic values propagate:
// masking unknown panics would hide real crashes.
func recoverInternal(phase string, err *error) {
	if p := recover(); p != nil {
		ie, ok := p.(*ir.InternalError)
		if !ok {
			panic(p)
		}
		*err = fmt.Errorf("%s: internal compiler error: %w", phase, ie)
	}
}

func joinErrors(phase string, errs []error) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s failed with %d error(s):", phase, len(errs))
	for i, e := range errs {
		if i == 8 {
			sb.WriteString("\n  ...")
			break
		}
		sb.WriteString("\n  " + e.Error())
	}
	return fmt.Errorf("%s", sb.String())
}
