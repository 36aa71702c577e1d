// Command cgcmstat is the performance-introspection CLI: it computes
// the exact critical path of a run on the simulated machine, classifies
// the limiting factor the way the paper's Table 3 does, and retimes the
// run's machine verbs under counterfactual machines to say exactly what
// each optimization could buy.
//
// Its input is a mini-C source file, compiled and executed live under
// optimized CGCM; the analysis reads the run's spans and verbs as the
// machine recorded them. A Chrome trace exported with -trace-out is a
// picture for Perfetto, not an input: a run is deterministic, so the
// source reproduces it, and stored records (-regress) compare runs
// across builds.
//
// Usage:
//
//	cgcmstat file.c                  # critical path, lanes, queues, overlap, what-if
//	cgcmstat -async file.c           # analyze the overlapped schedule
//	cgcmstat -whatif zero-comm file.c   # one counterfactual retime
//	cgcmstat -diff file.c            # sync vs -async, delta attribution
//	cgcmstat -diff a.c b.c           # attribute the delta of two programs
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
// and -timeout bounds its host time; they are ignored for stored
// records. -runlog names the store the query modes read.
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
	diff := fs.Bool("diff", false, "attribute a wall-time delta: two source runs, or one source run sync vs async")
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
		fmt.Fprintln(stderr, "usage: cgcmstat [-whatif scenario | -diff | -history | -regress a b | -report out.html] [-async] file.c")
		return 2
	}
	a, rep, err := load(ctx, fs.Arg(0), opts)
	if err != nil {
		return runf.RunFailed(stderr, "cgcmstat", err)
	}
	var b strings.Builder
	a.Render(&b)
	if scenario != "" {
		renderPredictions(&b, a, []critpath.Prediction{critpath.WhatIf(rep.Verbs, opts.CostModel(), scenario)})
	} else {
		renderPredictions(&b, a, critpath.WhatIfAll(rep.Verbs, opts.CostModel()))
	}
	fmt.Fprint(stdout, b.String())
	return 0
}

// load compiles and runs one source file under opts and ctx with a
// tracer attached and analyzes the run's spans.
func load(ctx context.Context, path string, opts core.Options) (*critpath.Analysis, *core.Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	opts.Tracer = trace.New()
	rep, err := core.CompileAndRunContext(ctx, path, string(src), opts)
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

// runDiff attributes the wall delta between two runs: of two source
// files under the same options, or, with one source file, of the same
// program sync versus async: did overlap change what is on the critical
// path? Both runs share ctx.
func runDiff(ctx context.Context, stdout, stderr io.Writer, runf *cli.RunFlags, args []string, opts core.Options) int {
	optsA, optsB := opts, opts
	var labelA, labelB string
	switch len(args) {
	case 1:
		args = []string{args[0], args[0]}
		labelA, labelB = "sync", "async"
		optsA.Async, optsB.Async = false, true
	case 2:
		labelA, labelB = diffLabels(args[0], args[1])
	default:
		fmt.Fprintln(stderr, "usage: cgcmstat -diff file.c | cgcmstat -diff a.c b.c")
		return 2
	}
	a, _, err := load(ctx, args[0], optsA)
	var b *critpath.Analysis
	if err == nil {
		b, _, err = load(ctx, args[1], optsB)
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
// case of diffing <dir-a>/p.c against <dir-b>/p.c).
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
