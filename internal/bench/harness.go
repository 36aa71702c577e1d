package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgcm/internal/analysis"
	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/faultinject"
	"cgcm/internal/ir"
	"cgcm/internal/metrics"
	"cgcm/internal/runlog"
	"cgcm/internal/stats"
	"cgcm/internal/trace"
	"cgcm/internal/typeinfer"
)

// Workers configures the parallel kernel-execution engine for every
// measurement run (core.Options.Workers); 0 means GOMAXPROCS. Simulated
// results are identical for every value — only host wall-clock changes.
var Workers int

// Ablate names optimization passes to skip in every measurement run
// (core.Options.Ablate), for ablation studies from the command line.
var Ablate core.PassSet

// TraceDir, when non-empty, makes every measurement run write a
// Perfetto-viewable Chrome trace-event file per program and system into
// the directory: <program>_<system>.json. Tracing perturbs only host
// time, never simulated results.
var TraceDir string

// Async enables communication overlap (core.Options.Async) in every
// measurement run: transfers move to streams, maps prefetch, flushes
// overlap host work. Program output is identical either way — only
// simulated walls and the overlapped-bytes ledger column change.
var Async bool

// GPUMem and Faults configure the simulated device of every measurement
// run (core.Options.GPUMemBytes and FaultSpec): a finite device makes the
// runtime evict under pressure, and injected faults drive its
// retry/degrade ladder. Output stays identical either way — RunProgram
// fails any run whose output differs from sequential — while walls and
// the resilience counters change.
var (
	GPUMem int64
	Faults *faultinject.Spec
)

// Metrics, when non-nil, receives instrument updates from every
// measurement run (core.Options.Metrics). Instruments are atomic, so a
// live scraper (-metrics-listen) can watch the suite progress.
var Metrics *metrics.Registry

// Runlog, when non-nil, receives one durable run record per program
// from every measurement sweep: the optimized-CGCM run, with remarks
// enabled so stored records can explain their own ledgers. Record IDs
// are per-program, so concurrent sweeps store identically to serial
// ones.
var Runlog *runlog.Store

// Timeout, when positive, bounds every measurement run's host time
// (-timeout): a run exceeding it aborts at the next kernel-launch
// boundary with a typed *interp.CancelError instead of hanging the
// suite. 0 means no limit.
var Timeout time.Duration

// runContext returns the context each measurement run executes under,
// honoring Timeout.
func runContext() (context.Context, context.CancelFunc) {
	if Timeout > 0 {
		return context.WithTimeout(context.Background(), Timeout)
	}
	return context.WithCancel(context.Background())
}

// Row holds the measured results for one program across the compared
// systems — everything Table 3 and Figure 4 need.
type Row struct {
	Program

	Seq, IE, Unopt, Opt *core.Report

	SpeedupIE    float64
	SpeedupUnopt float64
	SpeedupOpt   float64

	GPUPctUnopt, GPUPctOpt   float64
	CommPctUnopt, CommPctOpt float64
	Limiting                 string

	KernelsCGCM int // distinct kernels CGCM manages
	KernelsIE   int // kernels the inspector-executor/named-region guard admits
	KernelsNR   int

	// HostNS is the real (host) time spent measuring this program across
	// all four systems, in nanoseconds. It is the only field that depends
	// on the host machine.
	HostNS int64
}

// options returns the core.Options of a measurement run under s. The
// optimized run collects remarks when it is recorded, so stored records
// can explain their own ledgers.
func options(s core.Strategy) core.Options {
	return core.Options{
		Strategy: s, Workers: Workers, Ablate: Ablate, Async: Async, Metrics: Metrics,
		GPUMemBytes: GPUMem, FaultSpec: Faults, Remarks: s == core.CGCMOptimized && Runlog != nil,
	}
}

// RunProgram measures one program under all four systems. The four
// strategies compile and run concurrently — each on its own simulated
// machine, so they share nothing — and their reports land in fixed
// fields, so results are identical to running them back to back.
func RunProgram(p Program) (*Row, error) {
	row := &Row{Program: p}
	start := time.Now()
	run := func(s core.Strategy) (*core.Report, error) {
		opts := options(s)
		var tr *trace.Tracer
		// The optimized run is always traced: the limiting-factor column is
		// computed from its critical path, not from aggregate time shares.
		if TraceDir != "" || s == core.CGCMOptimized {
			tr = trace.New()
			opts.Tracer = tr
		}
		ctx, cancel := runContext()
		defer cancel()
		rep, err := core.CompileAndRunContext(ctx, p.Name, p.Source, opts)
		if err != nil {
			return nil, fmt.Errorf("%s [%s]: %w", p.Name, s, err)
		}
		if tr != nil && TraceDir != "" {
			if werr := writeProgramTrace(TraceDir, p.Name, s, tr); werr != nil {
				return nil, fmt.Errorf("%s [%s]: %w", p.Name, s, werr)
			}
		}
		return rep, nil
	}
	strategies := [4]core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized}
	var reps [4]*core.Report
	var errs [4]error
	var wg sync.WaitGroup
	for i := range strategies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = run(strategies[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	row.Seq, row.IE, row.Unopt, row.Opt = reps[0], reps[1], reps[2], reps[3]
	for _, rep := range []*core.Report{row.IE, row.Unopt, row.Opt} {
		if rep.Output != row.Seq.Output || rep.Exit != row.Seq.Exit {
			return nil, fmt.Errorf("%s [%s]: output diverged from sequential", p.Name, rep.Strategy)
		}
	}
	seqWall := row.Seq.Stats.Wall
	row.SpeedupIE = seqWall / row.IE.Stats.Wall
	row.SpeedupUnopt = seqWall / row.Unopt.Stats.Wall
	row.SpeedupOpt = seqWall / row.Opt.Stats.Wall

	row.GPUPctUnopt = 100 * row.Unopt.Stats.GPUTime / row.Unopt.Stats.Wall
	row.GPUPctOpt = 100 * row.Opt.Stats.GPUTime / row.Opt.Stats.Wall
	row.CommPctUnopt = 100 * row.Unopt.Stats.CommTime / row.Unopt.Stats.Wall
	row.CommPctOpt = 100 * row.Opt.Stats.CommTime / row.Opt.Stats.Wall
	// The limiting factor is whichever class dominates the optimized
	// run's critical path (the paper's Table 3 vocabulary). Unlike a
	// largest-time-share heuristic, this stays correct under -async:
	// communication hidden behind compute is off the path and stops
	// counting toward "Comm.".
	cp, err := critpath.Analyze(row.Opt.Spans, row.Opt.Stats.Wall)
	if err != nil {
		return nil, fmt.Errorf("%s [%s]: critical path: %w", p.Name, core.CGCMOptimized, err)
	}
	row.Limiting = cp.Limiting

	if row.KernelsCGCM, row.KernelsIE, row.KernelsNR, err = applicabilityCounts(p); err != nil {
		return nil, err
	}
	row.HostNS = time.Since(start).Nanoseconds()
	if Runlog != nil {
		rec := cli.NewRunRecord(p.Name, options(core.CGCMOptimized), row.Opt, row.HostNS)
		if _, err := Runlog.Append(rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return row, nil
}

// writeProgramTrace exports one measurement run's spans as Chrome
// trace-event JSON under dir, creating the directory on first use.
func writeProgramTrace(dir, program string, s core.Strategy, tr *trace.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.json", program, s))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteChrome(f, tr)
}

// applicabilityCounts compiles the program with DOALL only (no
// management) and classifies each kernel: CGCM handles all of them; the
// named-region and inspector-executor techniques "require that each of
// the live-ins is a distinct named allocation unit" — no double
// indirection, unambiguous points-to, and no data-dependent indexing —
// mirroring the paper's applicability guard.
//
// Note (EXPERIMENTS.md discusses this): our mini-C ports use flattened
// parallel arrays because the language has no structs, which removes the
// array-of-struct and pointer-laundering patterns that defeated the
// NR/IE guards in many of the paper's original kernels. Measured NR/IE
// applicability is therefore higher here than the paper's 80-of-101.
func applicabilityCounts(p Program) (cgcm, ie, nr int, err error) {
	return ApplicabilityOf(p.Name, p.Source)
}

// ApplicabilityOf classifies every kernel of a program for the CGCM /
// inspector-executor / named-regions applicability comparison.
func ApplicabilityOf(name, source string) (cgcm, ie, nr int, err error) {
	prog, err := core.Compile(name, source, core.Options{Strategy: core.InspectorExecutor})
	if err != nil {
		return 0, 0, 0, err
	}
	m := prog.Module
	pt := analysis.BuildPointsTo(m)
	// Spill forwarding per function, for resolving launch arguments to
	// the pointer computations behind them.
	fwd := make(map[*ir.Func]map[*ir.Instr]ir.Value)
	for _, f := range m.Funcs {
		if !f.Kernel {
			fwd[f] = analysis.SpillForwarding(f)
		}
	}
	for _, f := range m.Funcs {
		if !f.Kernel {
			continue
		}
		cgcm++
		cls, err := typeinfer.Infer(f, pt)
		if err != nil {
			continue // CGCM restriction violated: nobody handles it
		}
		ok := true
		// Find one launch of this kernel to inspect actual arguments.
		var launch *ir.Instr
		for _, g := range m.Funcs {
			g.Instrs(func(in *ir.Instr) {
				if in.Op == ir.OpLaunch && in.Callee == f && launch == nil {
					launch = in
				}
			})
		}
		for i, prm := range f.Params {
			d := cls.ParamDepth[prm]
			if d >= 2 {
				ok = false // doubly indirect live-in: not a named region
			}
			if d == 1 && launch != nil && i+2 < len(launch.Args) {
				arg := launch.Args[i+2]
				if len(pt.PTS(arg)) != 1 {
					ok = false // ambiguous aliasing live-in
				}
				// A pointer computed by arithmetic names the middle of a
				// unit; named regions transfer whole declared arrays only.
				if r, isInstr := analysis.Resolve(arg, fwd[launch.Block.Fn]).(*ir.Instr); isInstr {
					if r.Op == ir.OpAdd || r.Op == ir.OpSub {
						ok = false
					}
				}
			}
		}
		for _, d := range cls.GlobalDepth {
			if d >= 2 {
				ok = false
			}
		}
		if ok && hasDataDependentIndexing(f, pt) {
			ok = false // gathers/scatters defeat induction-based regions
		}
		if ok && hasStructFieldAccess(f) {
			// Array-of-struct accesses: the region is not a flat array
			// with induction-variable indexes, so the named-region and
			// inspector-executor guards reject it (the paper's Rodinia
			// and PARSEC failures).
			ok = false
		}
		if ok {
			ie++
			nr++
		}
	}
	return cgcm, ie, nr, nil
}

// hasStructFieldAccess reports whether the kernel addresses memory
// through struct field offsets (the front end tags those adds).
func hasStructFieldAccess(f *ir.Func) bool {
	found := false
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAdd && strings.HasPrefix(in.Comment, "field ") {
			found = true
		}
	})
	return found
}

// hasDataDependentIndexing reports whether any memory access in the
// kernel computes its address from a value loaded out of non-local
// memory (an index array), which named-region and inspector-executor
// techniques cannot schedule.
func hasDataDependentIndexing(f *ir.Func, pt *analysis.PointsTo) bool {
	local := make(map[*analysis.Object]bool)
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			if o := pt.ObjectOf(in); o != nil {
				local[o] = true
			}
		}
	})
	isLocal := func(addr ir.Value) bool {
		pts := pt.PTS(addr)
		if len(pts) == 0 {
			return false
		}
		for o := range pts {
			if !local[o] {
				return false
			}
		}
		return true
	}
	found := false
	f.Instrs(func(in *ir.Instr) {
		if found || (in.Op != ir.OpLoad && in.Op != ir.OpStore) {
			return
		}
		if isLocal(in.Args[0]) {
			return
		}
		// Does the address arithmetic consume an external load other
		// than the base pointer itself? Walk offset positions only.
		var walkOffsets func(v ir.Value, isBase bool)
		walkOffsets = func(v ir.Value, isBase bool) {
			x, ok := v.(*ir.Instr)
			if !ok || found {
				return
			}
			switch x.Op {
			case ir.OpAdd:
				walkOffsets(x.Args[0], isBase)
				walkOffsets(x.Args[1], false)
			case ir.OpSub, ir.OpMul, ir.OpShl:
				walkOffsets(x.Args[0], false)
				if len(x.Args) > 1 {
					walkOffsets(x.Args[1], false)
				}
			case ir.OpLoad:
				if !isBase && !isLocal(x.Args[0]) {
					found = true
				}
			}
		}
		walkOffsets(in.Args[0], true)
	})
	return found
}

// RunAll measures the whole suite, reporting progress to log (if
// non-nil). Programs are measured concurrently on up to GOMAXPROCS
// goroutines; each runs on its own simulated machines, so the rows are
// identical to a sequential sweep and come back in suite order.
func RunAll(log io.Writer) ([]*Row, error) {
	progs := All()
	rows := make([]*Row, len(progs))
	errs := make([]error, len(progs))
	nw := runtime.GOMAXPROCS(0)
	if nw > len(progs) {
		nw = len(progs)
	}
	var next atomic.Int64
	var logMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(progs) {
					return
				}
				p := progs[i]
				if log != nil {
					logMu.Lock()
					fmt.Fprintf(log, "running %-16s (%s)...\n", p.Name, p.Suite)
					logMu.Unlock()
				}
				rows[i], errs[i] = RunProgram(p)
			}
		}()
	}
	wg.Wait()
	// Report the first failure in suite order, independent of schedule.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Geomeans returns the whole-suite geometric mean speedups (IE,
// unoptimized CGCM, optimized CGCM) and the paper's clamped variants.
func Geomeans(rows []*Row) (ie, unopt, opt, ieC, unoptC, optC float64) {
	var a, b, c []float64
	for _, r := range rows {
		a = append(a, r.SpeedupIE)
		b = append(b, r.SpeedupUnopt)
		c = append(c, r.SpeedupOpt)
	}
	return stats.Geomean(a), stats.Geomean(b), stats.Geomean(c),
		stats.GeomeanClamped(a), stats.GeomeanClamped(b), stats.GeomeanClamped(c)
}

// RenderFigure4 prints the Figure 4 reproduction: whole-program speedup
// over sequential CPU-only execution for the three systems.
func RenderFigure4(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Figure 4: whole program speedup over sequential CPU-only execution")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-16s %-9s %12s %12s %12s\n", "program", "suite", "inspector", "unopt-CGCM", "opt-CGCM")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-9s %12.3fx %12.3fx %12.3fx\n",
			r.Name, r.Suite, r.SpeedupIE, r.SpeedupUnopt, r.SpeedupOpt)
	}
	ie, un, op, ieC, unC, opC := Geomeans(rows)
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-26s %12.3fx %12.3fx %12.3fx   (paper: 0.92x / 0.71x / 5.36x)\n", "geomean", ie, un, op)
	fmt.Fprintf(w, "%-26s %12.3fx %12.3fx %12.3fx   (paper: 1.53x / 2.81x / 7.18x)\n", "geomean (clamped at 1.0x)", ieC, unC, opC)
}

// RenderTable3 prints the Table 3 reproduction: program characteristics.
func RenderTable3(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Table 3: program characteristics")
	fmt.Fprintln(w, strings.Repeat("-", 110))
	fmt.Fprintf(w, "%-16s %-9s %-7s(%-6s %7s %7s %7s %7s   %5s %4s %4s  (paper: K/IE/NR, factor)\n",
		"program", "suite", "limit", "paper)", "GPU%un", "GPU%opt", "Com%un", "Com%opt", "K", "IE", "NR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-9s %-7s(%-6s %7.2f %7.2f %7.2f %7.2f   %5d %4d %4d  (%d/%d/%d, %s)\n",
			r.Name, r.Suite, r.Limiting, r.PaperLimiting+")",
			r.GPUPctUnopt, r.GPUPctOpt, r.CommPctUnopt, r.CommPctOpt,
			r.KernelsCGCM, r.KernelsIE, r.KernelsNR,
			r.PaperKernels, r.PaperIE, r.PaperNR, r.PaperLimiting)
	}
	totK, totIE, totNR := 0, 0, 0
	for _, r := range rows {
		totK += r.KernelsCGCM
		totIE += r.KernelsIE
		totNR += r.KernelsNR
	}
	fmt.Fprintln(w, strings.Repeat("-", 110))
	fmt.Fprintf(w, "totals: CGCM handles %d kernels; IE/NR applicable to %d/%d (paper: 101 vs 80)\n",
		totK, totIE, totNR)
}

// RenderLedger prints the communication-ledger summary: per program, how
// many allocation units crossed the bus, how many of them were cyclic
// under unoptimized CGCM versus optimized, the round trips each way, and
// the copies the optimized runtime skipped. It is the per-unit view
// behind Figure 2: optimization is visible as cyclic units becoming
// acyclic and round trips going to zero.
func RenderLedger(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Communication ledger: allocation-unit patterns, unoptimized vs optimized CGCM")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	fmt.Fprintf(w, "%-16s %-9s %6s %14s %14s %14s %10s\n",
		"program", "suite", "units", "cyclic un/opt", "trips un/opt", "copies un/opt", "opt skips")
	var cycUn, cycOpt int
	for _, r := range rows {
		un, opt := r.Unopt.Comm, r.Opt.Comm
		cycUn += un.Cyclic()
		cycOpt += opt.Cyclic()
		copies := func(l trace.Ledger) int64 {
			var n int64
			for i := range l.Units {
				n += l.Units[i].HtoDCopies + l.Units[i].DtoHCopies
			}
			return n
		}
		fmt.Fprintf(w, "%-16s %-9s %6d %8d/%-5d %8d/%-5d %8d/%-5d %10d\n",
			r.Name, r.Suite, len(un.Units),
			un.Cyclic(), opt.Cyclic(),
			un.RoundTrips(), opt.RoundTrips(),
			copies(un), copies(opt),
			opt.SkippedCopies())
	}
	fmt.Fprintln(w, strings.Repeat("-", 96))
	fmt.Fprintf(w, "totals: %d cyclic units unoptimized -> %d optimized\n", cycUn, cycOpt)
}

// RenderResilience prints, per program, what the optimized run's
// evict/retry/degrade ladder did on the configured device: injected
// faults, evictions, retries, rescue copies, kernels that fell back to
// the CPU, and whether the run finished on the GPU or in CPU fallback.
func RenderResilience(w io.Writer, rows []*Row) {
	device := "unlimited device memory"
	if GPUMem > 0 {
		device = fmt.Sprintf("device memory %d bytes", GPUMem)
	}
	faults := "no injected faults"
	if Faults != nil {
		faults = fmt.Sprintf("fault spec %q", Faults)
	}
	fmt.Fprintf(w, "Resilience: the optimized run's fault ladder (%s, %s)\n", faults, device)
	fmt.Fprintf(w, "%-16s %7s %7s %7s %7s %9s  %s\n",
		"program", "faults", "evicts", "retries", "rescues", "fallbacks", "mode")
	for _, r := range rows {
		st, rt := r.Opt.Stats, r.Opt.RTStats
		mode := "gpu"
		if rt.Degraded {
			mode = "cpu-fallback"
		}
		fmt.Fprintf(w, "%-16s %7d %7d %7d %7d %9d  %s\n",
			r.Name, st.InjectedFaults, rt.Evictions, rt.Retries, rt.RescueCopies, rt.FallbackKernels, mode)
	}
}
