// Command cgcmstat is the performance-introspection CLI: it computes
// the exact critical path of a run on the simulated machine, classifies
// the limiting factor the way the paper's Table 3 does, and retimes the
// run's machine verbs under counterfactual machines to say exactly what
// each optimization could buy.
//
// It consumes either a mini-C source file (compiled and executed live,
// optimized CGCM) or a Chrome trace-event JSON file exported earlier
// with -trace-out — traces are analyzable artifacts, not just pictures.
// A trace carries the spans but not the verbs, so what-if predictions
// need a source run.
//
// Usage:
//
//	cgcmstat file.c                  # critical path, lanes, queues, overlap, what-if
//	cgcmstat trace.json              # same, from an exported trace, without what-if
//	cgcmstat -async file.c           # analyze the overlapped schedule
//	cgcmstat -whatif zero-comm file.c   # one counterfactual retime
//	cgcmstat -diff file.c            # sync vs -async, delta attribution
//	cgcmstat -diff a.json b.json     # attribute the delta of two traces
//
// It is also the query CLI over the durable run-record store the other
// commands append to with -runlog (default store: .cgcm/runs):
//
//	cgcmstat -history                # trend table per program: wall, host
//	                                 # time, comm bytes, overlap, limiting
//	cgcmstat -regress atax-1 atax-2  # attribute the wall delta between two
//	                                 # stored records: span classes (exact)
//	                                 # plus per-allocation-unit changes with
//	                                 # the responsible pass or remark
//	cgcmstat -report out.html        # self-contained byte-deterministic
//	                                 # HTML report over the whole store
//	cgcmstat -version                # print build identity and exit
//
// -async, -gpu-mem, -faults, -ablate and -workers shape the live run,
// and -timeout bounds its host time; they are ignored for .json inputs
// and stored records. -runlog names the store the query modes read.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/runlog"
	"cgcm/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgcmstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	whatif := fs.String("whatif", "", "replay one scenario: zero-comm | gpu-2x | perfect-overlap | identity (default: all)")
	diff := fs.Bool("diff", false, "attribute a wall-time delta: two inputs, or one source run sync vs async")
	workers := fs.Int("workers", 0, "kernel-engine worker goroutines per launch (0 = GOMAXPROCS)")
	var ablate core.PassSet
	cli.AddAblateFlag(fs, &ablate)
	history := fs.Bool("history", false, "list the run-record store as a per-program trend table")
	regress := fs.Bool("regress", false, "attribute the wall delta between two stored records (two record IDs or paths)")
	report := fs.String("report", "", "write a self-contained HTML report over the run-record store to this file")
	runf := cli.AddRunFlags(fs, "gpu-mem", "faults", "async", "runlog", "timeout", "version")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmstat")
		return 0
	}
	spec, perr := runf.FaultSpec()
	if perr != nil {
		fmt.Fprintf(stderr, "cgcmstat: -faults: %v\n", perr)
		return 2
	}
	var scenario critpath.Scenario
	if *whatif != "" {
		if scenario, perr = critpath.ParseScenario(*whatif); perr != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", perr)
			return 2
		}
	}
	opts := core.Options{
		Strategy: core.CGCMOptimized, Workers: *workers, Ablate: ablate,
		Async: runf.Async, GPUMemBytes: runf.GPUMem, FaultSpec: spec,
	}
	// The store the record-query modes read; -runlog overrides it, the
	// same flag the producing commands use to choose where they append.
	storeDir := runf.Runlog
	if storeDir == "" {
		storeDir = runlog.DefaultDir
	}

	if *history {
		return runHistory(stdout, stderr, storeDir)
	}

	if *regress {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: cgcmstat -regress <record-a> <record-b>   (IDs, unique prefixes, or record paths)")
			return 2
		}
		return runRegress(stdout, stderr, storeDir, fs.Arg(0), fs.Arg(1))
	}

	if *report != "" {
		return runReport(stdout, stderr, storeDir, *report)
	}

	ctx, cancel := runf.RunContext()
	defer cancel()
	if *diff {
		return runDiff(ctx, stdout, stderr, runf, fs.Args(), opts)
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cgcmstat [-whatif scenario | -diff | -history | -regress a b | -report out.html] [-async] file.c|trace.json")
		return 2
	}
	if scenario != "" && isTrace(fs.Arg(0)) {
		fmt.Fprintln(stderr, "cgcmstat: -whatif needs a source run: a trace file carries no machine verbs")
		return 2
	}
	a, rep, err := load(ctx, fs.Arg(0), opts)
	if err != nil {
		return runf.RunFailed(stderr, "cgcmstat", err)
	}
	var b strings.Builder
	a.Render(&b)
	switch {
	case rep == nil:
		fmt.Fprintln(&b, "what-if: needs a source run (a trace file carries no machine verbs)")
	case scenario != "":
		renderPredictions(&b, a, []critpath.Prediction{critpath.WhatIf(rep.Verbs, opts.CostModel(), scenario)})
	default:
		renderPredictions(&b, a, critpath.WhatIfAll(rep.Verbs, opts.CostModel()))
	}
	fmt.Fprint(stdout, b.String())
	return 0
}

// isTrace reports whether path names an exported Chrome trace rather than
// a source file.
func isTrace(path string) bool { return strings.HasSuffix(path, ".json") }

// load produces an analysis from either input form: an exported Chrome
// trace (wall = the latest span end; no report) or a live optimized run
// under ctx, with its report.
func load(ctx context.Context, path string, opts core.Options) (*critpath.Analysis, *core.Report, error) {
	if isTrace(path) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		spans, _, err := trace.ReadChrome(f)
		if err != nil {
			return nil, nil, err
		}
		if len(spans) == 0 {
			return nil, nil, fmt.Errorf("%s: trace has no machine spans", path)
		}
		a, err := critpath.Analyze(spans, critpath.WallOf(spans))
		return a, nil, err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return analyzeLive(ctx, path, string(src), opts)
}

// analyzeLive compiles and runs one source under opts and ctx with a
// tracer attached and analyzes the spans.
func analyzeLive(ctx context.Context, name, src string, opts core.Options) (*critpath.Analysis, *core.Report, error) {
	opts.Tracer = trace.New()
	rep, err := core.CompileAndRunContext(ctx, name, src, opts)
	if err != nil {
		return nil, nil, err
	}
	a, err := critpath.Analyze(rep.Spans, rep.Stats.Wall)
	return a, rep, err
}

func renderPredictions(b *strings.Builder, a *critpath.Analysis, preds []critpath.Prediction) {
	fmt.Fprintf(b, "what-if retime (exact; measured wall %.2fus):\n", a.Wall*1e6)
	for _, p := range preds {
		fmt.Fprintf(b, "  %-16s predicted %10.2fus   speedup bound %6.2fx\n",
			p.Scenario, p.Wall*1e6, p.Speedup)
	}
}

// runDiff attributes the wall delta between two runs. With two
// arguments, each loads by its own form; with one source argument, the
// comparison is the same program sync versus async: did overlap change
// what is on the critical path? Live runs share ctx.
func runDiff(ctx context.Context, stdout, stderr io.Writer, runf *cli.RunFlags, args []string, opts core.Options) int {
	var a, b *critpath.Analysis
	var labelA, labelB string
	var err error
	switch len(args) {
	case 1:
		if isTrace(args[0]) {
			fmt.Fprintln(stderr, "cgcmstat: -diff with one input needs a source file (sync vs async); pass two traces to diff files")
			return 2
		}
		var src []byte
		if src, err = os.ReadFile(args[0]); err != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
			return 1
		}
		labelA, labelB = "sync", "async"
		syncOpts, asyncOpts := opts, opts
		syncOpts.Async, asyncOpts.Async = false, true
		if a, _, err = analyzeLive(ctx, args[0], string(src), syncOpts); err == nil {
			b, _, err = analyzeLive(ctx, args[0], string(src), asyncOpts)
		}
	case 2:
		labelA, labelB = diffLabels(args[0], args[1])
		if a, _, err = load(ctx, args[0], opts); err == nil {
			b, _, err = load(ctx, args[1], opts)
		}
	default:
		fmt.Fprintln(stderr, "usage: cgcmstat -diff file.c | cgcmstat -diff a.json b.json")
		return 2
	}
	if err != nil {
		return runf.RunFailed(stderr, "cgcmstat", err)
	}
	d := critpath.Diff(a, b)
	var out strings.Builder
	d.Render(&out, labelA, labelB)
	fmt.Fprintf(&out, "limiting factor: %s %s -> %s %s\n", labelA, a.Limiting, labelB, b.Limiting)
	if b.Overlap.Hidden > 0 {
		fmt.Fprintf(&out, "overlap: %.2fus of communication ran under other work in %s (efficiency %.0f%%)\n",
			b.Overlap.Hidden*1e6, labelB, 100*b.Overlap.Efficiency)
	}
	fmt.Fprint(stdout, out.String())
	return 0
}

// diffLabels shortens two input paths to distinct display labels: base
// names, widened by one parent directory when the bases collide (the
// common case of diffing <dir-sync>/p.json against <dir-async>/p.json).
func diffLabels(a, b string) (string, string) {
	la, lb := filepath.Base(a), filepath.Base(b)
	if la == lb {
		la = filepath.Join(filepath.Base(filepath.Dir(a)), la)
		lb = filepath.Join(filepath.Base(filepath.Dir(b)), lb)
	}
	return la, lb
}

// runHistory renders the run-record store as a per-program trend table:
// one line per record in store order, with the wall delta against the
// program's previous record.
func runHistory(stdout, stderr io.Writer, dir string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	recs, err := st.Records()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	if len(recs) == 0 {
		fmt.Fprintf(stdout, "no run records in %s (append some with -runlog on cgcmrun or cgcmbench)\n", dir)
		return 0
	}
	fmt.Fprintf(stdout, "run-record history: %s (%d records)\n", dir, len(recs))
	fmt.Fprintf(stdout, "%-20s %-28s %12s %8s %10s %10s %-9s %9s\n",
		"record", "options", "wall", "host", "comm", "overlap", "limiting", "vs prev")
	var prevProgram string
	var prevWall float64
	for _, r := range recs {
		limiting := "-"
		if r.Critpath != nil {
			limiting = r.Critpath.Limiting
		}
		trend := "-"
		if r.Program == prevProgram && prevWall > 0 {
			trend = fmt.Sprintf("%+8.2f%%", 100*(r.Stats.Wall-prevWall)/prevWall)
		}
		fmt.Fprintf(stdout, "%-20s %-28s %10.2fus %6.0fms %9dB %9dB %-9s %9s\n",
			r.ID, r.Options.Label(), r.Stats.Wall*1e6, float64(r.HostNS)/1e6,
			r.CommBytes(), r.Stats.OverlappedBytes, limiting, trend)
		prevProgram, prevWall = r.Program, r.Stats.Wall
	}
	return 0
}

// runRegress attributes the wall delta between two stored records: the
// exact span-class decomposition from their critical-path digests, then
// the per-allocation-unit communication changes with the responsible
// pass or blocking remark.
func runRegress(stdout, stderr io.Writer, dir, refA, refB string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	ra, err := st.Load(refA)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	rb, err := st.Load(refB)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	if ra.Program != rb.Program {
		fmt.Fprintf(stderr, "cgcmstat: warning: comparing different programs (%s vs %s)\n", ra.Program, rb.Program)
	}
	if ra.Critpath == nil || rb.Critpath == nil {
		fmt.Fprintln(stderr, "cgcmstat: -regress needs records with a critical-path digest (compile-only records have none)")
		return 1
	}
	d, err := critpath.DiffSummaries(*ra.Critpath, *rb.Critpath)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	var out strings.Builder
	fmt.Fprintf(&out, "regression attribution: %s (%s) -> %s (%s)\n",
		ra.ID, ra.Options.Label(), rb.ID, rb.Options.Label())
	d.Render(&out, ra.ID, rb.ID)
	fmt.Fprintf(&out, "limiting factor: %s %s -> %s %s\n", ra.ID, ra.Critpath.Limiting, rb.ID, rb.Critpath.Limiting)
	if d.Exact() {
		fmt.Fprintln(&out, "attribution is exact: per-class deltas sum to the wall delta with no residue")
	} else {
		fmt.Fprintln(&out, "attribution residue detected (records from an incompatible producer?)")
	}
	fmt.Fprintln(&out)
	runlog.RenderUnitDeltas(&out, ra.ID, rb.ID, runlog.DiffLedgers(ra, rb))
	fmt.Fprint(stdout, out.String())
	if !d.Exact() {
		return 1
	}
	return 0
}

// runReport renders the whole store as one self-contained HTML document.
func runReport(stdout, stderr io.Writer, dir, out string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	recs, err := st.Records()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := runlog.WriteHTML(f, recs); err != nil {
		fmt.Fprintf(stderr, "cgcmstat: write report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s (%d records, %d programs)\n", out, len(recs), countPrograms(recs))
	return 0
}

// countPrograms counts distinct programs across records.
func countPrograms(recs []*runlog.Record) int {
	seen := make(map[string]bool)
	for _, r := range recs {
		seen[r.Program] = true
	}
	return len(seen)
}
