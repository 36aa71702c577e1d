package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"cgcm/internal/faultinject"
	"cgcm/internal/interp"
)

// RunFlags is the shared execution-surface flag bundle: tracing,
// profiling, metrics export, device configuration, fault injection, and
// the -async overlap switch. AddRunFlags holds the one definition of each
// flag — name, help text, field — so a flag means the same on every
// command that registers it. A command registers only the flags its run
// reads; the fields of the others stay zero.
type RunFlags struct {
	Trace         bool
	TraceOut      string
	Prof          bool
	ProfN         int
	ProfFolded    string
	MetricsOut    string
	MetricsListen string
	GPUMem        int64
	Faults        string
	Async         bool
	Runlog        string
	Timeout       time.Duration
	Version       bool
}

// AddRunFlags registers the named shared execution flags on fs. It
// panics on a name it does not define.
func AddRunFlags(fs *flag.FlagSet, names ...string) *RunFlags {
	rf := &RunFlags{}
	for _, name := range names {
		switch name {
		case "trace":
			fs.BoolVar(&rf.Trace, name, false, "print the machine span trace after the run")
		case "trace-out":
			fs.StringVar(&rf.TraceOut, name, "", "write Chrome trace-event JSON for ui.perfetto.dev (cgcmbench: a directory, one trace per program and system)")
		case "prof":
			fs.BoolVar(&rf.Prof, name, false, "print the exact execution profile (hot lines, launch sites, transfers)")
		case "prof-n":
			fs.IntVar(&rf.ProfN, name, 20, "number of hot lines shown by -prof")
		case "prof-folded":
			fs.StringVar(&rf.ProfFolded, name, "", "write folded stacks (kernel@site;line ops) for flamegraph tools")
		case "metrics":
			fs.StringVar(&rf.MetricsOut, name, "", "write the metrics registry snapshot as JSON")
		case "metrics-listen":
			fs.StringVar(&rf.MetricsListen, name, "", "serve live metrics at http://<addr>/metrics (Prometheus text format) while the run executes")
		case "gpu-mem":
			fs.Int64Var(&rf.GPUMem, name, 0, "device memory capacity in bytes (0 = unlimited); the runtime evicts under pressure")
		case "faults":
			fs.StringVar(&rf.Faults, name, "", "device fault-injection spec, e.g. seed=7,htod=0.5,alloc@3,fail=launch@2")
		case "async":
			fs.BoolVar(&rf.Async, name, false, "overlap communication with compute: stream transfers, prefetched maps, overlapped flushes")
		case "runlog":
			fs.StringVar(&rf.Runlog, name, "", "append a durable run record to this store directory (cgcmstat default: .cgcm/runs)")
		case "timeout":
			fs.DurationVar(&rf.Timeout, name, 0, "abort the run after this host duration (e.g. 30s); the run stops at the next kernel-launch boundary with a typed error (0 = no limit)")
		case "version":
			fs.BoolVar(&rf.Version, name, false, "print build identity (module version, VCS revision) and exit")
		default:
			panic("cli: no shared flag -" + name)
		}
	}
	return rf
}

// Tracing reports whether a tracer sink must be attached to the run.
func (rf *RunFlags) Tracing() bool { return rf.Trace || rf.TraceOut != "" }

// Profiling reports whether the exact profiler must be enabled.
func (rf *RunFlags) Profiling() bool { return rf.Prof || rf.ProfFolded != "" }

// RunContext returns the execution context implied by -timeout: a
// deadline context when a timeout was given, Background otherwise. The
// cancel func is always non-nil; callers defer it.
func (rf *RunFlags) RunContext() (context.Context, context.CancelFunc) {
	if rf.Timeout > 0 {
		return context.WithTimeout(context.Background(), rf.Timeout)
	}
	return context.WithCancel(context.Background())
}

// RunFailed reports a failed run on stderr, prefixed by cmd, and returns
// exit code 1. A run the -timeout deadline cancelled says so.
func (rf *RunFlags) RunFailed(stderr io.Writer, cmd string, err error) int {
	var cancelErr *interp.CancelError
	if errors.As(err, &cancelErr) {
		fmt.Fprintf(stderr, "%s: run aborted by -timeout %v: %v\n", cmd, rf.Timeout, err)
	} else {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
	}
	return 1
}

// FaultSpec parses -faults; a nil spec means no injection.
func (rf *RunFlags) FaultSpec() (*faultinject.Spec, error) {
	if rf.Faults == "" {
		return nil, nil
	}
	return faultinject.ParseSpec(rf.Faults)
}
