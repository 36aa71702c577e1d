package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json hostbench reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadSide reads the timed results one side of a comparison names: a
// result file, a comma-separated list of them, or a directory of them.
func loadSide(arg string) ([]result, error) {
	var paths []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		var gerr error
		if paths, gerr = filepath.Glob(filepath.Join(arg, "*.json")); gerr != nil {
			return nil, gerr
		}
		sort.Strings(paths)
	} else {
		paths = strings.Split(arg, ",")
	}
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Schema != resultSchema {
			return nil, fmt.Errorf("%s: result schema %d, want %d", p, f.Schema, resultSchema)
		}
		for _, r := range f.Results {
			if !r.Traced {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed results", arg)
	}
	return out, nil
}

// verdict judges one metric on one workload. worse is how far the new
// median is on the wrong side of the old one, as a share of the old one;
// spread is the wider of the two sides' quartile distances over their
// medians. A spread wider than the bound cannot carry a verdict unless
// the two sides do not overlap at all.
func verdict(old, new []float64, higherBetter bool, bound float64) (string, float64, float64) {
	om, nm := median(old), median(new)
	worse := (nm - om) / om
	if higherBetter {
		worse = -worse
	}
	spread := 0.0
	for _, side := range [][]float64{old, new} {
		q1, q3 := quartiles(side)
		if m := median(side); m != 0 {
			spread = max(spread, (q3-q1)/m)
		}
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	allBetter := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case allBetter(new, old):
		return "improved", worse, spread
	case worse > bound && (spread <= bound || allBetter(old, new)):
		return "regressed", worse, spread
	case worse > bound || spread > bound:
		return "unresolved", worse, spread
	}
	return "ok", worse, spread
}

// compareSets prints, per workload and end-to-end metric, each side's
// median and quartiles, the bound from the BENCHMARK.json at specPath and
// a verdict. It reports whether anything regressed or failed more often.
func compareSets(w io.Writer, specPath, oldArg, newArg string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	olds, err := loadSide(oldArg)
	if err != nil {
		return false, err
	}
	news, err := loadSide(newArg)
	if err != nil {
		return false, err
	}
	values := func(rs []result, workload, name string) (vs []float64) {
		for _, r := range rs {
			if r.Workload == workload {
				vs = append(vs, r.Metrics[name].Value)
			}
		}
		return vs
	}
	failedShare := func(rs []result, workload string) float64 {
		failed, attempted := 0, 0
		for _, r := range rs {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		if attempted == 0 {
			return 0
		}
		return float64(failed) / float64(attempted)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tworse by\tspread\tbound\tverdict")
	side := func(vs []float64) string {
		q1, q3 := quartiles(vs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(vs), q1, q3, len(vs))
	}
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			o, n := values(olds, wl.Name, ms.Name), values(news, wl.Name, ms.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, worse, spread := verdict(o, n, ms.Better == "higher", ms.Bound)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, ms.Name, side(o), side(n), 100*worse, 100*spread, 100*ms.Bound, v)
		}
		fo, fn := failedShare(olds, wl.Name), failedShare(news, wl.Name)
		v := "ok"
		if fn > fo {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\t\t\t0%%\t%s\n", wl.Name, fo, fn, v)
	}
	return regressed, tw.Flush()
}
