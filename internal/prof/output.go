package prof

import (
	"fmt"
	"io"
)

// loc renders file:line, with line 0 as "?".
func loc(file string, line int) string {
	if line <= 0 {
		return file + ":?"
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// WriteFlat renders the profile as a flat text report: GPU totals, the
// top-N hottest source lines with cumulative percentages, the launch
// sites, and the transfer and runtime-call tables. topN <= 0 means all
// lines.
func (p *Profile) WriteFlat(w io.Writer, topN int) error {
	if p == nil {
		_, err := fmt.Fprintln(w, "no profile collected")
		return err
	}
	var launches, fallbacks int64
	for _, s := range p.Sites {
		launches += s.Launches
		fallbacks += s.FallbackLaunches
	}
	// Only a run that degraded gets fallback columns, so a healthy run's
	// report has the same shape as the JSON's healthy rows.
	degraded := fallbacks > 0 || p.TotalFallbackOps > 0
	fb := func(cols string, v ...any) string {
		if !degraded {
			return ""
		}
		return fmt.Sprintf(cols, v...)
	}
	if _, err := fmt.Fprintf(w, "CGCM exact profile: %s\n", p.File); err != nil {
		return err
	}
	fmt.Fprintf(w, "GPU: %d simulated ops, %d launches, %.6fs kernel wall\n",
		p.TotalGPUOps, launches, p.KernelWall)
	fmt.Fprint(w, fb("CPU fallback: %d simulated ops, %d launches\n", p.TotalFallbackOps, fallbacks))
	fmt.Fprintf(w, "Runtime library: %.6fs simulated\n", p.RuntimeSeconds())

	n := len(p.Lines)
	if topN > 0 && topN < n {
		n = topN
	}
	fmt.Fprintf(w, "\nHot lines (top %d of %d):\n", n, len(p.Lines))
	fmt.Fprintf(w, "  %12s  %6s  %6s  %-18s  %s%s\n", "GPU OPS", "%", "CUM%", "LOCATION", "KERNEL (launch site)",
		fb("  %12s", "FALLBACK OPS"))
	var cum int64
	for _, s := range p.Lines[:n] {
		cum += s.GPUOps
		pct := func(v int64) float64 {
			if p.TotalGPUOps == 0 {
				return 0
			}
			return 100 * float64(v) / float64(p.TotalGPUOps)
		}
		fmt.Fprintf(w, "  %12d  %5.1f%%  %5.1f%%  %-18s  %s (%s)%s\n",
			s.GPUOps, pct(s.GPUOps), pct(cum), loc(p.File, s.Line), s.Kernel, loc(p.File, s.Site),
			fb("  %12d", s.FallbackOps))
	}

	if len(p.Sites) > 0 {
		fmt.Fprintf(w, "\nLaunch sites:\n")
		fmt.Fprintf(w, "  %-24s  %-18s  %8s  %12s  %12s%s\n", "KERNEL", "SITE", "LAUNCHES", "WALL(s)", "GPU OPS",
			fb("  %8s  %12s", "FALLBACK", "FALLBACK OPS"))
		for _, s := range p.Sites {
			fmt.Fprintf(w, "  %-24s  %-18s  %8d  %12.6f  %12d%s\n",
				s.Kernel, loc(p.File, s.Site), s.Launches, s.Wall, s.GPUOps,
				fb("  %8d  %12d", s.FallbackLaunches, s.FallbackOps))
		}
	}

	if len(p.Units) > 0 {
		fmt.Fprintf(w, "\nTransfers:\n")
		fmt.Fprintf(w, "  %-16s  %-18s  %12s  %6s  %12s  %6s\n",
			"UNIT", "LOCATION", "HTOD BYTES", "COPIES", "DTOH BYTES", "COPIES")
		for _, u := range p.Units {
			fmt.Fprintf(w, "  %-16s  %-18s  %12d  %6d  %12d  %6d\n",
				u.Unit, loc(p.File, u.Line), u.HtoDBytes, u.HtoDCount, u.DtoHBytes, u.DtoHCount)
		}
	}

	if len(p.Runtime) > 0 {
		fmt.Fprintf(w, "\nRuntime calls:\n")
		fmt.Fprintf(w, "  %-16s  %-18s  %8s  %12s\n", "CALL", "LOCATION", "CALLS", "TIME(s)")
		for _, r := range p.Runtime {
			fmt.Fprintf(w, "  %-16s  %-18s  %8d  %12.6f\n",
				r.Call, loc(p.File, r.Line), r.Calls, r.Seconds)
		}
	}
	return nil
}

// WriteFolded renders the GPU-cycle attribution as folded stacks, one
// line per sample in the format flamegraph.pl / speedscope / inferno
// consume:
//
//	<kernel>@<file>:<site>;<file>:<line> <ops>
//
// The root frame is the kernel and its launch site; the leaf frame is
// the source line the simulated ops executed on. Lines that ran only as
// CPU fallback have no GPU cycles and no stack.
func (p *Profile) WriteFolded(w io.Writer) error {
	if p == nil {
		return nil
	}
	for _, s := range p.Lines {
		if s.GPUOps == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s@%s;%s %d\n",
			s.Kernel, loc(p.File, s.Site), loc(p.File, s.Line), s.GPUOps); err != nil {
			return err
		}
	}
	return nil
}
