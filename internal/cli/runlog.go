// Run-record assembly: the bridge from a live core.Report to a durable
// runlog.Record. All four commands build records through these helpers,
// so a record written by cgcmrun, the bench harness, or cgcmc carries
// identical field semantics and cgcmstat can diff any two of them.
package cli

import (
	"fmt"
	"io"
	"time"

	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/runlog"
)

// FingerprintOptions condenses core.Options to the stored fingerprint:
// every field that shapes the simulated run, rendered canonically.
func FingerprintOptions(opts core.Options) runlog.OptionsFP {
	fp := runlog.OptionsFP{
		Strategy: opts.Strategy.String(),
		Ablate:   opts.Ablate.String(),
		Async:    opts.Async,
		Workers:  opts.Workers,
		GPUMem:   opts.GPUMemBytes,
	}
	if opts.FaultSpec != nil {
		fp.Faults = opts.FaultSpec.String()
	}
	return fp
}

// NewRunRecord builds the durable record of one executed run. When the
// report carries spans, the record also gets the critical-path digest
// and what-if predictions, so stored records answer -regress and
// -whatif questions without re-execution.
func NewRunRecord(program string, opts core.Options, rep *core.Report, hostNS int64) *runlog.Record {
	rec := &runlog.Record{
		Schema:     runlog.Schema,
		Program:    program,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		HostNS:     hostNS,
		Build:      runlog.CollectBuildInfo(),
		Options:    FingerprintOptions(opts),
		Exit:       rep.Exit,
		Stats:      rep.Stats,
		RTStats:    rep.RTStats,
		Comm:       rep.Comm,
		Metrics:    rep.Metrics,
		Remarks:    rep.Remarks,
		Phases:     rep.Phases,
	}
	if len(rep.Spans) > 0 {
		if a, err := critpath.Analyze(rep.Spans, rep.Stats.Wall); err == nil {
			s := a.Summary()
			s.Predictions = critpath.WhatIfAll(rep.Verbs, opts.CostModel())
			rec.Critpath = &s
		}
	}
	return rec
}

// NewCompileRecord builds the record of a compile-only invocation
// (cgcmc): phases, remarks, and metrics with zero Stats and no
// critical-path section.
func NewCompileRecord(program string, opts core.Options, prog *core.Program, hostNS int64) *runlog.Record {
	rec := &runlog.Record{
		Schema:     runlog.Schema,
		Program:    program,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		HostNS:     hostNS,
		Build:      runlog.CollectBuildInfo(),
		Options:    FingerprintOptions(opts),
		Remarks:    prog.Remarks(),
		Phases:     prog.Phases(),
	}
	if opts.Metrics != nil {
		rec.Metrics = opts.Metrics.Snapshot()
	}
	return rec
}

// AppendRecord opens the -runlog store and appends rec, reporting the
// assigned ID the way the other run artifacts announce themselves.
// Returns a non-zero exit code on failure.
func (rf *RunFlags) AppendRecord(stdout, stderr io.Writer, rec *runlog.Record) int {
	st, err := runlog.Open(rf.Runlog)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	id, err := st.Append(rec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "--- run record %s appended to %s\n", id, st.Dir())
	return 0
}

// PrintVersion prints the command's build identity: one summary line,
// then the module path and full VCS details when stamped.
func PrintVersion(w io.Writer, cmd string) {
	b := runlog.CollectBuildInfo()
	fmt.Fprintf(w, "%s %s\n", cmd, b.String())
	if b.Module != "" {
		fmt.Fprintf(w, "  module: %s\n", b.Module)
	}
	if b.VCSRevision != "" {
		fmt.Fprintf(w, "  vcs: %s", b.VCSRevision)
		if b.VCSTime != "" {
			fmt.Fprintf(w, " (%s)", b.VCSTime)
		}
		if b.VCSDirty {
			fmt.Fprint(w, " dirty")
		}
		fmt.Fprintln(w)
	}
}
