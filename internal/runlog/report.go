// The self-contained HTML report: one dependency-free document (inline
// CSS, inline SVG, a few lines of inline JS for filtering) rendering a
// record set as trend charts, per-program critical-path class mixes,
// lane utilization, the communication ledger, and the top remarks.
//
// The output is byte-deterministic for a given record set: it renders
// only the deterministic record fields (never recorded_at, host_ns,
// options.workers, or the metrics snapshot), iterates programs in
// sorted order and records in store-canonical order, and contains no
// timestamps — so re-exports of the same store, and stores recorded at
// different engine worker counts, produce identical bytes.
package runlog

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"cgcm/internal/trace"
)

// classColors maps critical-path classes to the categorical palette
// slots, in class order: GPU, Comm., CPU, Overhead, Stall.
var classColors = []string{"var(--series-1)", "var(--series-2)", "var(--series-3)", "var(--series-4)", "var(--series-5)"}

// WriteHTML renders the record set as one self-contained HTML document.
// recs should be in store-canonical order (Store.Records); compile-only
// records render their remarks but no charts.
func WriteHTML(w io.Writer, recs []*Record) error {
	byProg := make(map[string][]*Record)
	var progs []string
	for _, r := range recs {
		if _, ok := byProg[r.Program]; !ok {
			progs = append(progs, r.Program)
		}
		byProg[r.Program] = append(byProg[r.Program], r)
	}
	sort.Strings(progs)

	var b strings.Builder
	writeHead(&b)
	fmt.Fprintf(&b, "<header><h1>CGCM run report</h1>\n")
	fmt.Fprintf(&b, "<p class=\"sub\">%d record(s) &middot; %d program(s) &middot; schema %d</p>\n",
		len(recs), len(progs), Schema)
	b.WriteString("<p><input id=\"filter\" type=\"search\" placeholder=\"filter programs\" aria-label=\"filter programs\"></p>\n")
	writeClassLegend(&b)
	b.WriteString("</header>\n")

	for _, p := range progs {
		writeProgram(&b, p, byProg[p])
	}
	writeRemarks(&b, progs, byProg)
	writeFooter(&b, recs)
	b.WriteString("<script>\n" +
		"document.getElementById('filter').addEventListener('input',function(e){\n" +
		" var q=e.target.value.toLowerCase();\n" +
		" document.querySelectorAll('section.program').forEach(function(s){\n" +
		"  s.style.display=s.dataset.program.indexOf(q)>=0?'':'none';});\n" +
		"});\n" +
		"</script>\n</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHead emits the document head with the inline stylesheet: the
// validated categorical palette as CSS custom properties, light and
// dark via prefers-color-scheme, text always in ink tokens.
func writeHead(b *strings.Builder) {
	b.WriteString(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>CGCM run report</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4;
  --seq-250: #86b6ef;
  --good: #0ca30c; --critical: #d03b3b; --delta-good: #006300;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181;
    --seq-250: #1c5cab;
    --good: #0ca30c; --critical: #d03b3b; --delta-good: #0ca30c;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500; --series-5: #d55181;
  --seq-250: #1c5cab;
  --good: #0ca30c; --critical: #d03b3b; --delta-good: #0ca30c;
}
body { margin: 0; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
header, section, footer { max-width: 980px; margin: 0 auto; padding: 12px 20px; }
h1 { font-size: 22px; margin: 12px 0 2px; }
h2 { font-size: 17px; margin: 8px 0; }
h3 { font-size: 14px; margin: 12px 0 4px; color: var(--text-secondary); }
.sub { color: var(--text-secondary); margin: 0 0 8px; }
section.program { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; margin-bottom: 16px; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--text-muted); font-weight: 500; font-size: 12px; }
th, td { padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; }
tr:last-child td { border-bottom: none; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; color: var(--text-secondary); font-size: 12px; }
.chip { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: -1px; }
.badge { font-size: 12px; color: var(--text-secondary); }
.badge .chip { width: 8px; height: 8px; }
.delta-up { color: var(--critical); }
.delta-down { color: var(--delta-good); }
.muted { color: var(--text-muted); }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--text-muted); font-variant-numeric: tabular-nums; }
.lanebar { background: var(--grid); border-radius: 2px; height: 10px; position: relative;
  min-width: 120px; }
.lanebar span { position: absolute; left: 0; top: 0; bottom: 0; border-radius: 2px; }
input#filter { font: inherit; color: inherit; background: var(--surface-1);
  border: 1px solid var(--baseline); border-radius: 6px; padding: 4px 8px; width: 240px; }
footer { color: var(--text-muted); font-size: 12px; }
</style>
</head>
<body class="viz-root">
`)
}

// writeClassLegend emits the shared legend for the critical-path class
// colors (identity is never color-alone: every chart also carries the
// values in an adjacent table).
func writeClassLegend(b *strings.Builder) {
	names := []string{"GPU", "Comm.", "CPU", "Overhead", "Stall"}
	b.WriteString("<div class=\"legend\">")
	for i, n := range names {
		fmt.Fprintf(b, "<span><span class=\"chip\" style=\"background:%s\"></span>%s</span>",
			classColors[i], html.EscapeString(n))
	}
	b.WriteString("<span class=\"muted\">critical-path classes</span></div>\n")
}

// us renders seconds as microseconds.
func us(v float64) string { return fmt.Sprintf("%.2f", v*1e6) }

// maxWall returns the largest wall among records (at least a positive
// floor so scales stay finite).
func maxWall(recs []*Record) float64 {
	m := 0.0
	for _, r := range recs {
		if r.Stats.Wall > m {
			m = r.Stats.Wall
		}
	}
	if m <= 0 {
		m = 1
	}
	return m
}

// writeProgram emits one program's section: wall trend chart, record
// table, per-record class mix, latest lane utilization, latest ledger.
func writeProgram(b *strings.Builder, prog string, recs []*Record) {
	fmt.Fprintf(b, "<section class=\"program\" data-program=\"%s\">\n<h2>%s</h2>\n",
		html.EscapeString(strings.ToLower(prog)), html.EscapeString(prog))
	writeTrendChart(b, recs)
	writeRecordTable(b, recs)
	writeClassMix(b, recs)
	latest := recs[len(recs)-1]
	if latest.Critpath != nil {
		writeLanes(b, latest)
	}
	writeLedger(b, latest)
	b.WriteString("</section>\n")
}

// writeTrendChart draws the simulated-wall trend as an SVG bar chart:
// one blue bar per record (single series, so the title names it and no
// legend box is needed), direct value labels, baseline-anchored bars.
func writeTrendChart(b *strings.Builder, recs []*Record) {
	const barW, gap, chartH, top, left = 34, 10, 96, 16, 8
	m := maxWall(recs)
	width := left*2 + len(recs)*(barW+gap)
	height := chartH + top + 18
	b.WriteString("<h3>simulated wall trend (&micro;s)</h3>\n")
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"wall time per record\">\n", width, height)
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--baseline)\"/>\n",
		left, chartH+top, width-left, chartH+top)
	for i, r := range recs {
		h := int(float64(chartH) * r.Stats.Wall / m)
		if h < 1 && r.Stats.Wall > 0 {
			h = 1
		}
		x := left + i*(barW+gap)
		y := chartH + top - h
		fmt.Fprintf(b, "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" rx=\"2\" fill=\"var(--series-1)\">"+
			"<title>%s: %s&micro;s (%s)</title></rect>\n",
			x, y, barW, h,
			html.EscapeString(r.ID), us(r.Stats.Wall), html.EscapeString(r.Options.Label()))
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%s</text>\n",
			x+barW/2, y-4, us(r.Stats.Wall))
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%s</text>\n",
			x+barW/2, chartH+top+13, html.EscapeString(seqOf(r)))
	}
	b.WriteString("</svg>\n")
}

// seqOf extracts the short per-program sequence label from a record ID
// (<program>-<n> -> #<n>), falling back to the ID.
func seqOf(r *Record) string {
	if i := strings.LastIndexByte(r.ID, '-'); i >= 0 && i+1 < len(r.ID) {
		return "#" + r.ID[i+1:]
	}
	if r.ID == "" {
		return "?"
	}
	return r.ID
}

// writeRecordTable emits the per-record table: configuration, wall,
// communication, overlap, and limiting factor, with the wall delta
// against the previous record.
func writeRecordTable(b *strings.Builder, recs []*Record) {
	b.WriteString("<table>\n<tr><th>record</th><th>configuration</th><th class=\"num\">wall &micro;s</th>" +
		"<th class=\"num\">&Delta; wall</th><th class=\"num\">comm bytes</th>" +
		"<th class=\"num\">overlapped</th><th>limiting</th></tr>\n")
	for i, r := range recs {
		limiting := "&mdash;"
		if r.Critpath != nil {
			limiting = html.EscapeString(r.Critpath.Limiting)
		}
		delta := "<span class=\"muted\">&mdash;</span>"
		if i > 0 && recs[i-1].Stats.Wall > 0 {
			d := 100 * (r.Stats.Wall - recs[i-1].Stats.Wall) / recs[i-1].Stats.Wall
			cls, arrow := "delta-down", "&darr;"
			if d > 0 {
				cls, arrow = "delta-up", "&uarr;"
			} else if d == 0 {
				cls, arrow = "muted", "&rarr;"
			}
			delta = fmt.Sprintf("<span class=\"%s\">%s %+.2f%%</span>", cls, arrow, d)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td>"+
			"<td class=\"num\">%d</td><td class=\"num\">%d</td><td>%s</td></tr>\n",
			html.EscapeString(r.ID), html.EscapeString(r.Options.Label()),
			us(r.Stats.Wall), delta, r.CommBytes(), r.Stats.OverlappedBytes, limiting)
	}
	b.WriteString("</table>\n")
}

// writeClassMix draws, per record, the critical path as a stacked
// horizontal bar of class shares (2px surface gaps between segments;
// exact values in the segment tooltips and the class table below).
func writeClassMix(b *strings.Builder, recs []*Record) {
	any := false
	for _, r := range recs {
		if r.Critpath != nil {
			any = true
		}
	}
	if !any {
		return
	}
	const rowH, barH, labelW, barW = 22, 12, 64, 560
	b.WriteString("<h3>critical-path class mix</h3>\n")
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"critical path class shares per record\">\n",
		labelW+barW+8, len(recs)*rowH+4)
	row := 0
	for _, r := range recs {
		if r.Critpath == nil {
			continue
		}
		y := row*rowH + 2
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			labelW-6, y+barH-2, html.EscapeString(seqOf(r)))
		x := float64(labelW)
		wall := r.Critpath.Wall
		if wall <= 0 {
			wall = 1
		}
		for c, ct := range r.Critpath.Classes {
			if ct.Seconds <= 0 {
				continue
			}
			w := float64(barW-8) * ct.Seconds / wall
			if w < 1 {
				w = 1
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" rx=\"2\" fill=\"%s\">"+
				"<title>%s %s: %s&micro;s (%.1f%%)</title></rect>\n",
				x, y, w, barH, classColors[c],
				html.EscapeString(seqOf(r)), html.EscapeString(ct.Class), us(ct.Seconds), 100*ct.Seconds/wall)
			x += w + 2
		}
		row++
	}
	b.WriteString("</svg>\n")
}

// writeLanes emits the latest record's lane utilization: busy and
// on-path time per lane, values in the table, bar as a part-of-whole
// overlay (lighter step = busy, full step = on the critical path).
func writeLanes(b *strings.Builder, r *Record) {
	cp := r.Critpath
	if len(cp.Lanes) == 0 {
		return
	}
	wall := cp.Wall
	if wall <= 0 {
		wall = 1
	}
	fmt.Fprintf(b, "<h3>lane utilization (%s)</h3>\n", html.EscapeString(r.ID))
	b.WriteString("<table>\n<tr><th>lane</th><th class=\"num\">busy &micro;s</th><th class=\"num\">on-path &micro;s</th>" +
		"<th class=\"num\">stall &micro;s</th><th>busy share of wall</th></tr>\n")
	for _, l := range cp.Lanes {
		busyPct := 100 * l.Busy / wall
		onPct := 100 * l.OnPath / wall
		if busyPct > 100 {
			busyPct = 100
		}
		if onPct > 100 {
			onPct = 100
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td>"+
			"<td><div class=\"lanebar\" title=\"busy %.1f%%, on-path %.1f%%\">"+
			"<span style=\"width:%.1f%%;background:var(--seq-250)\"></span>"+
			"<span style=\"width:%.1f%%;background:var(--series-1)\"></span></div></td></tr>\n",
			html.EscapeString(l.Lane), us(l.Busy), us(l.OnPath), us(l.Stall),
			busyPct, onPct, busyPct, onPct)
	}
	b.WriteString("</table>\n")
	if cp.Overlap.CommTime > 0 {
		fmt.Fprintf(b, "<p class=\"badge\">communication %s&micro;s total, %s&micro;s on path, %s&micro;s hidden under compute (overlap efficiency %.1f%%)</p>\n",
			us(cp.Overlap.CommTime), us(cp.Overlap.OnPath), us(cp.Overlap.Hidden), 100*cp.Overlap.Efficiency)
	}
}

// patternBadgeHTML renders a ledger pattern as a colored chip plus
// text (never color alone): cyclic = critical, acyclic = good.
func patternBadgeHTML(p trace.Pattern) string {
	color := "var(--text-muted)"
	switch p {
	case trace.PatternCyclic:
		color = "var(--critical)"
	case trace.PatternAcyclic:
		color = "var(--good)"
	}
	return fmt.Sprintf("<span class=\"badge\"><span class=\"chip\" style=\"background:%s\"></span>%s</span>",
		color, html.EscapeString(p.String()))
}

// writeLedger emits the latest record's communication ledger with the
// cyclic/acyclic classification and overlapped-byte column.
func writeLedger(b *strings.Builder, r *Record) {
	if len(r.Comm.Units) == 0 {
		return
	}
	fmt.Fprintf(b, "<h3>communication ledger (%s)</h3>\n", html.EscapeString(r.ID))
	b.WriteString("<table>\n<tr><th>unit</th><th class=\"num\">size</th><th class=\"num\">HtoD</th>" +
		"<th class=\"num\">DtoH</th><th class=\"num\">bytes</th><th class=\"num\">overlapped</th>" +
		"<th class=\"num\">trips</th><th class=\"num\">skips</th><th>pattern</th></tr>\n")
	for i := range r.Comm.Units {
		u := &r.Comm.Units[i]
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%d</td>"+
			"<td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td>%s</td></tr>\n",
			html.EscapeString(u.Label()), u.Size, u.HtoDCopies, u.DtoHCopies,
			u.BytesHtoD+u.BytesDtoH, u.OverlappedBytes, u.RoundTrips,
			u.ResidencySkips+u.EpochSkips, patternBadgeHTML(u.Pattern))
	}
	b.WriteString("</table>\n")
}

// writeRemarks aggregates the remark streams of each program's latest
// record into the top-remarks table: what fired or was rejected most,
// across the whole record set.
func writeRemarks(b *strings.Builder, progs []string, byProg map[string][]*Record) {
	type key struct {
		pass, kind, reason string
	}
	counts := make(map[key]int)
	example := make(map[key]string)
	for _, p := range progs {
		recs := byProg[p]
		latest := recs[len(recs)-1]
		for i := range latest.Remarks {
			r := &latest.Remarks[i]
			k := key{pass: r.Pass, kind: r.Kind.String(), reason: r.Reason.String()}
			counts[k]++
			if _, ok := example[k]; !ok {
				example[k] = fmt.Sprintf("%s: %s", p, r.Message)
			}
		}
	}
	if len(counts) == 0 {
		return
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].pass != keys[j].pass {
			return keys[i].pass < keys[j].pass
		}
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].reason < keys[j].reason
	})
	if len(keys) > 15 {
		keys = keys[:15]
	}
	b.WriteString("<section class=\"program\" data-program=\"remarks\">\n<h2>top remarks</h2>\n")
	b.WriteString("<p class=\"sub\">aggregated over each program's latest record</p>\n")
	b.WriteString("<table>\n<tr><th>pass</th><th>kind</th><th>reason</th><th class=\"num\">count</th><th>example</th></tr>\n")
	for _, k := range keys {
		reason := k.reason
		if reason == "" {
			reason = "&mdash;"
		} else {
			reason = html.EscapeString(reason)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%d</td><td class=\"muted\">%s</td></tr>\n",
			html.EscapeString(k.pass), html.EscapeString(k.kind), reason,
			counts[k], html.EscapeString(example[k]))
	}
	b.WriteString("</table>\n</section>\n")
}

// writeFooter emits the build-identity footer. Records carry their own
// producer's build info; the footer shows the set's distinct builds.
func writeFooter(b *strings.Builder, recs []*Record) {
	seen := make(map[string]bool)
	var builds []string
	for _, r := range recs {
		if s := r.Build.String(); !seen[s] {
			seen[s] = true
			builds = append(builds, s)
		}
	}
	sort.Strings(builds)
	label := "no build identity recorded"
	if len(builds) > 0 {
		label = "recorded by cgcm " + strings.Join(builds, "; ")
	}
	fmt.Fprintf(b, "<footer>%s &middot; run-record schema %d</footer>\n", html.EscapeString(label), Schema)
}
