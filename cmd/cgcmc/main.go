// Command cgcmc is the CGCM compiler driver: it compiles a mini-C file
// and prints the IR, optionally after each phase, without running it.
//
// Usage:
//
//	cgcmc file.c                 # final IR under -strategy
//	cgcmc -passes file.c         # dump IR after every phase
//	cgcmc -phases file.c         # compile-phase report (time, activity)
//	cgcmc -strategy unopt file.c # sequential | inspector | unopt | opt
//	cgcmc -ablate mappromo file.c # skip named optimization passes
//	cgcmc -metrics m.json file.c # compile.<phase>.* metrics as JSON
//	cgcmc -remarks file.c        # optimization remarks (what fired, what
//	                             # was rejected and why), suppressing IR
//	cgcmc -remarks -remarks-missed-only file.c   # rejections only
//	cgcmc -remarks -remarks-pass mappromo file.c # one pass's remarks
//	cgcmc -remarks-json r.json file.c            # remarks as JSON
//	cgcmc -async file.c          # compile with the overlap pass: map/unmap
//	                             # sites move to their stream variants
//	cgcmc -runlog .cgcm/runs file.c # append a compile-only run record
//	                             # (phases, remarks, metrics; no Stats)
//	cgcmc -version               # print build identity and exit
//
// cgcmc never executes the program, so of the shared execution flags it
// registers only -async, -metrics, -runlog and -version.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: it parses args, compiles, and writes
// to the given streams, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgcmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passes := fs.Bool("passes", false, "dump IR after every compilation phase")
	strategy := fs.String("strategy", "opt", "sequential | inspector | unopt | opt")
	phases := fs.Bool("phases", false, "report compile phases with wall time and activity")
	var ablate core.PassSet
	cli.AddAblateFlag(fs, &ablate)
	runf := cli.AddRunFlags(fs, "metrics", "async", "runlog", "version")
	rflags := cli.AddRemarkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmc")
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cgcmc [-passes] [-phases] [-strategy s] [-ablate passes] [-remarks] file.c")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "cgcmc: %v\n", err)
		return 1
	}
	st, ok := cli.ParseStrategy(*strategy)
	if !ok {
		fmt.Fprintf(stderr, "cgcmc: unknown strategy %q\n", *strategy)
		return 2
	}
	opts := core.Options{Strategy: st, Ablate: ablate, Remarks: rflags.Wanted() || runf.Runlog != "", Async: runf.Async}
	if *passes {
		opts.DumpWriter = stdout
	}
	if runf.MetricsOut != "" {
		opts.Metrics = metrics.New()
	}
	hostStart := time.Now()
	prog, err := core.Compile(fs.Arg(0), string(src), opts)
	hostNS := time.Since(hostStart).Nanoseconds()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmc: %v\n", err)
		return 1
	}
	// -remarks replaces the IR listing on stdout (pipe either one).
	if !*passes && !rflags.Show {
		io.WriteString(stdout, prog.Module.String())
	}
	if code := rflags.Write("cgcmc", prog.Remarks(), stdout, stderr); code != 0 {
		return code
	}
	if *phases {
		for _, ph := range prog.Phases() {
			note := ph.Note
			if note == "" {
				note = "-"
			}
			fmt.Fprintf(stderr, "%-12s %10.2fms %6d %s\n",
				ph.Name, float64(ph.HostNS)/1e6, ph.Activity, note)
		}
	}
	if runf.MetricsOut != "" {
		f, err := os.Create(runf.MetricsOut)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmc: %v\n", err)
			return 1
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(opts.Metrics.Snapshot()); err != nil {
			fmt.Fprintf(stderr, "cgcmc: write metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "--- metrics written to %s\n", runf.MetricsOut)
	}
	if runf.Runlog != "" {
		rec := cli.NewCompileRecord(fs.Arg(0), opts, prog, hostNS)
		if code := runf.AppendRecord(stderr, stderr, rec); code != 0 {
			return code
		}
	}
	return 0
}
