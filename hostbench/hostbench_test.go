package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cgcm/internal/core"
)

// TestSmoke runs every workload for one round: nothing fails, every
// end-to-end metric is reported, and the result says where it came from.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, config{seed: 3, rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted != len(w.slots()) {
				t.Fatalf("attempted %d, failed %d, correct %v; want %d, 0, true", res.Attempted, res.Failed, res.Correct, len(w.slots()))
			}
			for name, unit := range endToEndUnits {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", name, m, unit)
				}
			}
			if len(res.Metrics) != len(endToEndUnits) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndUnits))
			}
			e := res.Env
			if e.Commit == "" || e.GoVersion == "" || e.NumCPU < 1 || e.GOMAXPROCS < 1 || res.Seed != 3 || res.Rounds != 1 {
				t.Errorf("result does not say where it came from: %+v seed %d rounds %d", e, res.Seed, res.Rounds)
			}
		})
	}
}

// TestDriverEquivalence holds the span-recording drivers of the traced
// run to the product entry points, for every class.
func TestDriverEquivalence(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.checkDrivers(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTracedOperationsVerify runs a class of each kind through its
// traced driver and checks the result against the same goldens.
func TestTracedOperationsVerify(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	runKey, compileKey := goldenKey("gramschmidt", "opt-faults"), goldenKey("gen8", "opt")
	for _, w := range []*workload{
		{name: "run", clients: 1, classes: []opClass{{name: runKey, mult: 1}}, prepare: prepareRuns([]string{runKey})},
		{name: "compile", clients: 1, classes: []opClass{{name: compileKey, mult: 1}}, prepare: prepareCompiles([]string{compileKey})},
	} {
		inst, err := w.prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		s := measure(w, inst, 1, 0, forRounds(2), 0, tr)
		if s.failed != 0 || s.attempted != 2 {
			t.Errorf("%s: attempted %d, failed %d", w.name, s.attempted, s.failed)
		}
		m := map[string]float64{"runtime.map_copy_us": 1, "runtime.map_resident_us": 1}
		inst.layers(m)
		if len(tr.spans) == 0 || len(tr.opClass) != 2 || len(m) <= 2 {
			t.Errorf("%s: %d spans, %d ops, %d layer metrics", w.name, len(tr.spans), len(tr.opClass), len(m))
		}
		for layer, ns := range tr.selfNS() {
			if ns < 0 {
				t.Errorf("%s: layer %s has negative self time %d", w.name, layer, ns)
			}
		}
	}
}

// TestPerturbedGoldenFails: the verification has teeth. One changed
// statistic in one golden makes that class's operations fail.
func TestPerturbedGoldenFails(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	good, bad := goldenKey("gramschmidt", "unopt"), goldenKey("gramschmidt", "unopt-async")
	gold := g.Run[bad]
	gold.Stats.NumHtoD++
	g.Run[bad] = gold
	w := &workload{name: "perturbed", clients: 1,
		classes: []opClass{{name: good, mult: 1}, {name: bad, mult: 1}},
		prepare: prepareRuns([]string{good, bad})}
	inst, err := w.prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	s := measure(w, inst, 1, 0, forRounds(2), 0, nil)
	if s.attempted != 4 || s.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 4, 2 (failed_share 0.5)", s.attempted, s.failed)
	}
	if lat, _ := s.latencies(false); len(lat[0]) != 2 || len(lat[1]) != 0 {
		t.Errorf("failed operations must not contribute latency samples: %v", lat)
	}

	cg := g.Compile[goldenKey("gen8", "opt")]
	got := cg
	got.Activity = map[string]int{}
	for phase, n := range cg.Activity {
		got.Activity[phase] = n
	}
	if err := cg.verify(got); err != nil {
		t.Error(err)
	}
	got.Activity["doall"]++
	if err := cg.verify(got); err == nil {
		t.Error("a changed pass activity count verified")
	}
}

// TestGenerators: byte-deterministic for a seed, different across seeds,
// and every generated program gives the sequential output under all four
// strategies.
func TestGenerators(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"gen":       func(s int64) string { return genLoopGroups(6, s) },
		"pingpong":  func(s int64) string { return genPingPong(12, s) },
		"jagged":    func(s int64) string { return genJagged(40, 3, s) },
		"manyunits": func(s int64) string { return genManyUnits(300, 20, s) },
		"tiny":      func(s int64) string { return genTiny(int(s%tinyVariants), s) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seen := map[string]bool{}
			for seed := int64(1); seed <= 3; seed++ {
				src := gen(seed)
				if src != gen(seed) {
					t.Fatalf("seed %d: not deterministic", seed)
				}
				seen[src] = true
				var want string
				for _, st := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
					rep, err := core.CompileAndRun(name, src, core.Options{Strategy: st, Workers: 1})
					if err != nil {
						t.Fatalf("seed %d, %s: %v", seed, st, err)
					}
					if st == core.Sequential {
						want = rep.Output
					} else if rep.Output != want {
						t.Errorf("seed %d, %s: output %q, sequential %q", seed, st, rep.Output, want)
					}
					if st == core.CGCMUnoptimized && rep.Stats.NumKernels == 0 {
						t.Errorf("seed %d: no loop was parallelized", seed)
					}
				}
			}
			if len(seen) != 3 {
				t.Errorf("3 seeds gave %d distinct programs", len(seen))
			}
		})
	}

	// A cold variant misses a cache keyed on source text and changes
	// nothing else.
	src := genTiny(0, progSeed)
	cold := coldVariant(src, 42)
	if cold == src || cold == coldVariant(src, 43) || cold != coldVariant(src, 42) {
		t.Error("cold variants must differ by nonce only")
	}
	a, err := core.Compile("tiny0", src, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Compile("tiny0", cold, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if a.Module.String() != b.Module.String() {
		t.Error("a cold variant compiles to a different module")
	}
}

// TestSchedule: every round visits every slot once, the order depends
// on the seed alone, and rounds are whole.
func TestSchedule(t *testing.T) {
	w := workloadByName("serve_mixed")
	order := func(seed int64) []slot {
		s := newSchedule(w, seed, 0, forRounds(2), 0)
		var out []slot
		for {
			sl, _, _, _, ok := s.next()
			if !ok {
				return out
			}
			out = append(out, sl)
			s.finished()
		}
	}
	a, b, c := order(7), order(7), order(8)
	if len(a) != 200 {
		t.Fatalf("2 rounds gave %d operations, want 200", len(a))
	}
	same := func(x, y []slot) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Error("the order must be a function of the seed")
	}
	for r := 0; r < 2; r++ {
		count := map[slot]int{}
		for _, sl := range a[r*100 : (r+1)*100] {
			count[sl]++
		}
		if len(count) != 100 {
			t.Errorf("round %d visited %d distinct slots, want 100", r, len(count))
		}
	}
}

// TestBands is the percentile-boundary self-check: on the workloads
// with disjoint latency bands, p50 and p95 sit 2% clear of every edge.
func TestBands(t *testing.T) {
	for _, name := range []string{"compile_cold", "serve_mixed"} {
		w := workloadByName(name)
		if w.bands == nil {
			t.Errorf("%s declares no latency bands", name)
		}
		if err := checkBands(w); err != nil {
			t.Error(err)
		}
	}
	edge := &workload{name: "edge", bands: []string{"cheap", "dear"},
		classes: []opClass{{band: "cheap", mult: 94}, {band: "dear", mult: 6}}}
	if err := checkBands(edge); err == nil {
		t.Error("p95 one percent from a band edge passed the check")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue in this
// package and to the limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads()) {
		t.Fatalf("%d workloads", n)
	}
	for i, w := range workloads() {
		sw := spec.Workloads[i]
		if sw.Name != w.name || sw.Why != w.why {
			t.Errorf("workload %d is %q (%q), the package says %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
		if !nameRE.MatchString(sw.Name) || len(sw.Why) > 200 || strings.Contains(sw.Why, "\n") {
			t.Errorf("workload %q breaks the schema limits", sw.Name)
		}
	}
	if n := len(spec.EndToEnd); n > 16 || n != len(endToEndUnits) {
		t.Fatalf("%d end-to-end metrics, the package has %d", n, len(endToEndUnits))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit || !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %+v is not in the catalogue", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bad bound or direction", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(spec.PerLayer); n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the package has %d", n, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		better := "lower"
		if want.higher {
			better = "higher"
		}
		if m.Name != want.name || m.Unit != want.unit || m.Better != better || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %+v, the package says %+v", i, m, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4)
	if q1, q3 = quartiles([]float64{30, 10, 20}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles = %v, %v; Python gives 10.0, 30.0", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     string
	}{
		{"same", []float64{100, 101, 102}, []float64{100.5, 101, 101.5}, false, 0.08, "ok"},
		{"slower", []float64{100, 101, 102}, []float64{120, 121, 122}, false, 0.08, "regressed"},
		{"slower within bound", []float64{100, 101, 102}, []float64{104, 105, 106}, false, 0.08, "ok"},
		{"faster", []float64{100, 101, 102}, []float64{80, 81, 82}, false, 0.08, "improved"},
		{"lower throughput", []float64{50, 51, 52}, []float64{40, 41, 42}, true, 0.08, "regressed"},
		{"noisy", []float64{100, 140, 180}, []float64{150, 160, 170}, false, 0.08, "unresolved"},
		{"noisy but apart", []float64{100, 140, 180}, []float64{300, 340, 380}, false, 0.08, "regressed"},
	} {
		if got, _, _ := verdict(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare: -compare exits non-zero on a regression and on more
// failures, and zero on an A/A pair.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failed int) string {
		var f resultFile
		f.Schema = resultSchema
		for i := 0; i < 3; i++ {
			r := result{Workload: "run_compute"}
			r.Attempted, r.Failed = 100, failed
			r.Metrics = map[string]metric{}
			for m, unit := range endToEndUnits {
				r.Metrics[m] = metric{10 + 0.01*float64(i), unit}
			}
			r.Metrics["ops_per_s"] = metric{opsPerS + 0.01*float64(i), "1/s"}
			f.Results = append(f.Results, r)
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same := write("base.json", 14, 0), write("same.json", 14.1, 0)
	slow, failing := write("slow.json", 10, 0), write("failing.json", 14, 1)
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, c := range []struct {
		new  string
		want bool
	}{{same, false}, {slow, true}, {failing, true}} {
		var out bytes.Buffer
		regressed, err := compareSets(&out, spec, base, c.new)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.want {
			t.Errorf("%s against base: regressed = %v, want %v\n%s", filepath.Base(c.new), regressed, c.want, out.String())
		}
	}
}

// TestResultLine drives the command the way the acceptance driver does
// and reads the last line of its output.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "r.json")
	if code := run([]string{"--workload", "serve_mixed", "--seed", "5", "--seconds", "0.2", "--trace", "0", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndUnits) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEndUnits))
	}
	if rs, err := loadSide(out); err != nil || len(rs) != 1 || rs[0].Seed != 5 {
		t.Errorf("-out file: %v, %d results", err, len(rs))
	}
	if code := run([]string{"-workload", "nonesuch"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
