// Quantile estimation and Prometheus text exposition: the export
// surface a multi-tenant cgcmd service scrapes. Both operate on frozen
// Snapshots, so serving them never contends with the instruments.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Quantile estimates the q-th quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// rank, the same estimator Prometheus's histogram_quantile uses: the
// first bucket interpolates up from zero, and ranks landing in the
// +Inf bucket clamp to the last finite bound (there is no upper edge
// to interpolate toward). Returns 0 when the histogram is empty.
func (h *HistSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(h.Count))
	var cum float64
	for i, n := range h.Buckets {
		prev := cum
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// fillQuantiles populates the frozen P50/P95/P99 fields.
func (h *HistSnapshot) fillQuantiles() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// promName maps an instrument name ("machine.kernel.launches") to the
// Prometheus metric-name alphabet.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects, shortest round-
// trippable digits, with +Inf spelled out.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: instruments appear
// in sorted name order (the Snapshot order), histogram buckets are
// cumulative and ascending. A nil snapshot writes nothing.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	return WritePrometheusLabeled(w, s, nil, nil)
}

// promLabels renders a label map canonically (sorted keys, quoted
// values); empty input renders to "".
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", promName(k), labels[k])
	}
	return strings.Join(parts, ",")
}

// WritePrometheusLabeled writes the snapshot with a fixed label set
// attached to every sample — the per-tenant exposition surface: a
// multi-tenant server writes each tenant's registry snapshot with
// labels {"tenant": name} into one page. typesSeen, when non-nil,
// deduplicates "# TYPE" comment lines across calls sharing one page
// (the text format allows each metric's TYPE line only once, while the
// same metric name appears once per tenant); pass nil for a standalone
// exposition.
func WritePrometheusLabeled(w io.Writer, s *Snapshot, labels map[string]string, typesSeen map[string]bool) error {
	if s == nil {
		return nil
	}
	lbl := promLabels(labels)
	suffix := ""
	if lbl != "" {
		suffix = "{" + lbl + "}"
	}
	writeType := func(name, kind string) error {
		if typesSeen != nil {
			if typesSeen[name] {
				return nil
			}
			typesSeen[name] = true
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, c := range s.Counters {
		n := promName(c.Name)
		if err := writeType(n, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", n, suffix, promFloat(c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		if err := writeType(n, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", n, suffix, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		n := promName(h.Name)
		if err := writeType(n, "histogram"); err != nil {
			return err
		}
		var cum int64
		for b, cnt := range h.Buckets {
			cum += cnt
			le := "+Inf"
			if b < len(h.Bounds) {
				le = promFloat(h.Bounds[b])
			}
			bl := fmt.Sprintf("le=%q", le)
			if lbl != "" {
				bl = lbl + "," + bl
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", n, bl, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", n, suffix, promFloat(h.Sum), n, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}
