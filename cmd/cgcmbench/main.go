// Command cgcmbench regenerates the paper's evaluation artifacts: the
// applicability comparison (Table 1), the execution schedules (Figure 2),
// the program-characteristics table (Table 3), and the whole-program
// speedups (Figure 4). -json writes the measured rows in the format of
// the committed baselines BENCH_0/1.json, which the tier-1 test
// TestRunAllRecordsTheSuite (internal/bench) holds the suite to.
//
// Usage:
//
//	cgcmbench              # everything
//	cgcmbench -table1      # just the applicability comparison
//	cgcmbench -fig2        # just the schedules
//	cgcmbench -table3      # just program characteristics
//	cgcmbench -fig4        # just the speedups
//	cgcmbench -program lu  # one program, all four systems
//	cgcmbench -ledger      # per-program communication-ledger summary
//	cgcmbench -json        # also write machine-readable BENCH_<n>.json
//	cgcmbench -trace-out traces/       # Perfetto trace per program and system
//	cgcmbench -workers 8   # kernel-engine worker goroutines per launch
//	cgcmbench -ablate mappromo  # skip named optimization passes
//	cgcmbench -program jacobi-2d -ablate-diff mappromo
//	                       # explain, per allocation unit, what the named
//	                       # passes buy: which units turn cyclic without
//	                       # them, and which remark promoted each
//	cgcmbench -async       # measure with communication overlap enabled
//	cgcmbench -gpu-mem 65536 -faults htod=0.3,seed=7
//	                       # measure on a finite, faulty device; adds what
//	                       # each optimized run's evict/retry/degrade ladder
//	                       # did (output must still match sequential)
//	cgcmbench -metrics-listen :9090      # serve live Prometheus /metrics
//	                       # over HTTP while the suite measures
//	cgcmbench -runlog .cgcm/runs  # append one durable run record per program
//	                       # (optimized-CGCM run) to the store
//	cgcmbench -timeout 30s # fail any run that takes longer in host time
//	cgcmbench -version     # print build identity and exit
//
// Every measurement run uses -async, -gpu-mem, -faults, -ablate,
// -workers and -timeout. -trace-out names a directory here, not a file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cgcm/internal/bench"
	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/metrics"
	"cgcm/internal/runlog"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// writeJSON writes the baseline document for rows to the first free
// BENCH_<n>.json and names the file on stderr; it returns a process exit
// code.
func writeJSON(stderr io.Writer, rows []*bench.Row) int {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		_, err := os.Stat(path)
		if err == nil {
			continue
		}
		if os.IsNotExist(err) {
			err = bench.NewBaseline(rows).WriteFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return 0
	}
}

// run is the testable entry point: it parses args and writes to the given
// streams, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "render Table 1 (applicability comparison)")
	f2 := fs.Bool("fig2", false, "render Figure 2 (execution schedules)")
	t3 := fs.Bool("table3", false, "render Table 3 (program characteristics)")
	f4 := fs.Bool("fig4", false, "render Figure 4 (whole-program speedups)")
	one := fs.String("program", "", "run a single named program")
	ledger := fs.Bool("ledger", false, "render the per-program communication-ledger summary")
	quiet := fs.Bool("q", false, "suppress progress output")
	jsonOut := fs.Bool("json", false, "write measured rows to BENCH_<n>.json")
	workers := fs.Int("workers", 0, "kernel-engine worker goroutines per launch (0 = GOMAXPROCS)")
	cli.AddAblateFlag(fs, &bench.Ablate)
	var ablateDiff core.PassSet
	fs.Var(&ablateDiff, "ablate-diff", "explain per allocation unit what ablating these passes costs (vs the -ablate set)")
	runf := cli.AddRunFlags(fs, "trace-out", "metrics-listen", "gpu-mem", "faults", "async", "runlog", "timeout", "version")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmbench")
		return 0
	}
	spec, err := runf.FaultSpec()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmbench: -faults: %v\n", err)
		return 2
	}
	bench.Workers = *workers
	bench.TraceDir = runf.TraceOut
	bench.Async = runf.Async
	bench.Timeout = runf.Timeout
	bench.GPUMem, bench.Faults = runf.GPUMem, spec
	if runf.Runlog != "" {
		st, err := runlog.Open(runf.Runlog)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: -runlog: %v\n", err)
			return 1
		}
		bench.Runlog = st
		defer func() { bench.Runlog = nil }()
	}
	if runf.MetricsListen != "" {
		reg := metrics.New()
		bench.Metrics = reg
		ms, err := cli.ServeMetrics(runf.MetricsListen, reg.Snapshot)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: -metrics-listen: %v\n", err)
			return 1
		}
		defer ms.Close()
		fmt.Fprintf(stderr, "serving metrics at http://%s/metrics\n", ms.Addr)
	}

	if ablateDiff != nil {
		return runAblateDiff(stdout, stderr, *one, bench.Ablate, ablateDiff)
	}

	// A configured device adds what each optimized run's fault ladder did.
	device := runf.GPUMem > 0 || spec != nil
	all := !*t1 && !*f2 && !*t3 && !*f4 && !*ledger && *one == ""

	if *one != "" {
		p, ok := bench.ByName(*one)
		if !ok {
			fmt.Fprintf(stderr, "cgcmbench: unknown program %q\n", *one)
			return 1
		}
		row, err := bench.RunProgram(p)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		rows := []*bench.Row{row}
		bench.RenderFigure4(stdout, rows)
		fmt.Fprintln(stdout)
		bench.RenderTable3(stdout, rows)
		if *ledger {
			fmt.Fprintln(stdout)
			bench.RenderLedger(stdout, rows)
			fmt.Fprintln(stdout)
			fmt.Fprintf(stdout, "%s, unoptimized CGCM:\n%s\n", row.Name, row.Unopt.Comm)
			fmt.Fprintf(stdout, "%s, optimized CGCM:\n%s", row.Name, row.Opt.Comm)
		}
		if device {
			fmt.Fprintln(stdout)
			bench.RenderResilience(stdout, rows)
		}
		if *jsonOut {
			return writeJSON(stderr, rows)
		}
		return 0
	}

	if all || *t1 {
		res, err := bench.RunTable1()
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: table 1: %v\n", err)
			return 1
		}
		bench.RenderTable1(stdout, res)
		fmt.Fprintln(stdout)
	}
	if all || *f2 {
		sch, err := bench.CollectSchedules()
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: figure 2: %v\n", err)
			return 1
		}
		bench.RenderFigure2(stdout, sch)
	}
	if all || *t3 || *f4 || *ledger || *jsonOut {
		var logw io.Writer = stderr
		if *quiet {
			logw = io.Discard
		}
		rows, err := bench.RunAll(logw)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		if all || *t3 {
			bench.RenderTable3(stdout, rows)
			fmt.Fprintln(stdout)
		}
		if all || *f4 {
			bench.RenderFigure4(stdout, rows)
		}
		if *ledger {
			if all || *f4 {
				fmt.Fprintln(stdout)
			}
			bench.RenderLedger(stdout, rows)
		}
		if device {
			if all || *f4 || *ledger {
				fmt.Fprintln(stdout)
			}
			bench.RenderResilience(stdout, rows)
		}
		if *jsonOut {
			return writeJSON(stderr, rows)
		}
	}
	return 0
}

// runAblateDiff explains what the diffed passes buy, per allocation
// unit, for one named program or the whole suite.
func runAblateDiff(stdout, stderr io.Writer, one string, base, extra core.PassSet) int {
	// The diffed set ablates the -ablate set plus the -ablate-diff passes.
	ablated := make(core.PassSet)
	for p := range base {
		ablated[p] = true
	}
	for p := range extra {
		ablated[p] = true
	}
	progs := bench.All()
	if one != "" {
		p, ok := bench.ByName(one)
		if !ok {
			fmt.Fprintf(stderr, "cgcmbench: unknown program %q\n", one)
			return 1
		}
		progs = []bench.Program{p}
	}
	for i, p := range progs {
		d, err := bench.DiffAblation(p, base, ablated)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		bench.RenderAblationDiff(stdout, d)
	}
	return 0
}
