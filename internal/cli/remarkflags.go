// Package cli holds flag bundles and parsing helpers shared by the cgcmc
// and cgcmrun command drivers, so the two commands expose identical
// -remarks* and -strategy interfaces.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cgcm/internal/core"
	"cgcm/internal/remarks"
)

// RemarkFlags is the -remarks* flag bundle: whether to print remarks,
// where to export them as JSON, and how to filter them.
type RemarkFlags struct {
	Show       bool
	JSONOut    string
	Pass       string
	Kind       string
	Unit       string
	MissedOnly bool
}

// AddRemarkFlags registers the -remarks* flags on fs.
func AddRemarkFlags(fs *flag.FlagSet) *RemarkFlags {
	rf := &RemarkFlags{}
	fs.BoolVar(&rf.Show, "remarks", false, "print optimization remarks (applied, missed with reasons, analysis)")
	fs.StringVar(&rf.JSONOut, "remarks-json", "", "write optimization remarks as JSON to this file")
	fs.StringVar(&rf.Pass, "remarks-pass", "", "show only remarks from this pass ("+core.RemarkPassNames()+")")
	fs.StringVar(&rf.Kind, "remarks-kind", "", "show only remarks of this kind (applied, missed, analysis, runtime)")
	fs.StringVar(&rf.Unit, "remarks-unit", "", "show only remarks whose allocation-unit label contains this substring")
	fs.BoolVar(&rf.MissedOnly, "remarks-missed-only", false, "show only missed-optimization (and runtime) remarks")
	return rf
}

// Wanted reports whether remark collection must be enabled
// (core.Options.Remarks).
func (rf *RemarkFlags) Wanted() bool { return rf.Show || rf.JSONOut != "" }

// Write filters rs per the flags and emits text to out and/or JSON to
// the -remarks-json file; it returns a process exit code (0 = ok). cmd
// prefixes error messages.
func (rf *RemarkFlags) Write(cmd string, rs []remarks.Remark, out, stderr io.Writer) int {
	if !rf.Wanted() {
		return 0
	}
	if rf.Kind != "" {
		if _, err := remarks.ParseKind(rf.Kind); err != nil {
			fmt.Fprintf(stderr, "%s: -remarks-kind: %v\n", cmd, err)
			return 2
		}
	}
	rs = remarks.Filter{
		Pass: rf.Pass, Kind: rf.Kind, Unit: rf.Unit, MissedOnly: rf.MissedOnly,
	}.Apply(rs)
	if rf.Show {
		if err := remarks.Write(out, rs); err != nil {
			fmt.Fprintf(stderr, "%s: write remarks: %v\n", cmd, err)
			return 1
		}
	}
	if rf.JSONOut != "" {
		f, err := os.Create(rf.JSONOut)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
			return 1
		}
		defer f.Close()
		if err := remarks.WriteJSON(f, rs); err != nil {
			fmt.Fprintf(stderr, "%s: write remarks: %v\n", cmd, err)
			return 1
		}
		fmt.Fprintf(stderr, "--- remarks written to %s\n", rf.JSONOut)
	}
	return 0
}

// AddAblateFlag registers -ablate on fs, accumulating into set.
func AddAblateFlag(fs *flag.FlagSet, set *core.PassSet) {
	fs.Var(set, "ablate", "comma-separated passes to skip ("+core.AblatableNames()+")")
}

// ParseStrategy maps the -strategy spellings to core strategies.
func ParseStrategy(s string) (core.Strategy, bool) {
	switch s {
	case "sequential", "seq":
		return core.Sequential, true
	case "inspector", "ie":
		return core.InspectorExecutor, true
	case "unopt", "unoptimized":
		return core.CGCMUnoptimized, true
	case "opt", "optimized":
		return core.CGCMOptimized, true
	}
	return 0, false
}
