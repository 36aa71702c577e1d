// Command hostbench measures the host clock: how long the Go process
// takes to compile, interpret, account and answer a cgcmd request. The
// simulated clock is frozen and gated elsewhere (BENCH_0/1.json); this is
// the other one. See README.md in this directory.
//
//	go run ./hostbench -workload run_compute -seed 1 -seconds 20 -trace 0
//	go run ./hostbench -workload run_comm -layers -out traced.json
//	go run ./hostbench -all -out all.json
//	go run ./hostbench -compare old/ new/
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (or, on a traced run,
// the per-layer metrics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"cgcm/internal/runlog"
)

// setupReps is how many times a timed run sets the workload up; setup_s
// is the fastest, for the reason the timing metrics are floors (see
// endToEnd).
const setupReps = 5

// tracedShare is the part of -seconds a traced run spends on rounds;
// the probes take the rest.
const tracedShare = 0.4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract with the acceptance driver: the last line
// of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records where a result came from.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// classRow is one class's latency summary in a result file.
type classRow struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	FloorMS float64 `json:"floor_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// result is one run of one workload, as -out stores it.
type result struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Rounds   int         `json:"rounds"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	resultLine
	Classes []classRow `json:"classes,omitempty"`
	// OpClass maps each traced operation id to its class name, so the
	// spans can be grouped by class.
	OpClass []string `json:"op_class,omitempty"`
	Spans   []span   `json:"spans,omitempty"`
	// Raw holds the end-to-end metrics before calibration, and BurstMS
	// every calibration burst of the timed phase, so a reader can see
	// what the machine did under the run.
	Raw     map[string]float64 `json:"raw,omitempty"`
	BurstMS []float64          `json:"burst_ms,omitempty"`
}

// resultFile is what -out writes: one result, or four with -all.
type resultFile struct {
	Schema  int      `json:"schema"`
	Results []result `json:"results"`
}

const resultSchema = 1

func env() environment {
	e := environment{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b := runlog.CollectBuildInfo(); b.VCSRevision != "" {
		e.Commit = b.VCSRevision
	}
	return e
}

type config struct {
	seed    int64
	seconds float64
	rounds  int // tests: measure this many rounds after one set-up without a warm-up round
	traced  bool
}

// runWorkload sets the workload up, measures it, and returns its result.
func runWorkload(w *workload, cfg config) (*result, error) {
	if err := checkBands(w); err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Env: env()}
	inst, setupS, rawSetupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	more := forRounds(cfg.rounds)
	if cfg.rounds <= 0 {
		budget := cfg.seconds
		if cfg.traced {
			budget *= tracedShare
		}
		more = forSeconds(time.Duration(budget * float64(time.Second)))
	}
	runtime.GC()
	if cfg.traced {
		return res, tracedRun(res, w, inst, cfg.seed, more)
	}
	s := measure(w, inst, cfg.seed, 0, more, w.calEvery, nil)
	res.fill(w, s, endToEnd(w, s, setupS), endToEndUnits)
	res.Raw = rawEndToEnd(s, rawSetupS)
	for _, b := range s.bursts {
		res.BurstMS = append(res.BurstMS, b.ns()/1e6)
	}
	return res, nil
}

// setUp builds the instance the run measures and times doing so: goldens
// load, inputs, precompilation, server start and one warm-up round. A
// timed run sets up setupReps times and keeps the last instance; setupS
// is the fastest set-up, calibrated, and rawS the median as measured. A
// traced run sets up once, and its equivalence guard, which runs every
// class through both drivers, is its warm-up.
func setUp(w *workload, cfg config) (inst instance, setupS, rawS float64, err error) {
	reps := setupReps
	if cfg.traced || cfg.rounds > 0 {
		reps = 1
	}
	var cal, raw []float64
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		before := takeBurst()
		g, err := loadGoldens()
		if err != nil {
			return nil, 0, 0, err
		}
		if inst, err = w.prepare(g); err != nil {
			return nil, 0, 0, err
		}
		switch {
		case cfg.traced:
			err = inst.checkDrivers()
		case cfg.rounds <= 0:
			if warm := measure(w, inst, cfg.seed, -1-rep, forRounds(1), 0, nil); warm.failed > 0 {
				err = fmt.Errorf("%s: %d of %d warm-up operations failed", w.name, warm.failed, warm.attempted)
			}
		}
		if err != nil {
			_ = inst.close()
			return nil, 0, 0, err
		}
		after := takeBurst()
		t := after.start.Sub(before.end).Seconds()
		raw = append(raw, t)
		cal = append(cal, t*burstRefNS/min(before.ns(), after.ns()))
	}
	return inst, slices.Min(cal), median(raw), nil
}

// tracedRun fills res with the per-layer metrics. Rounds alternate
// between the span-recording drivers and the product entry points, so
// the tracing overhead comes from one process; then the probes run; then
// the instance derives the workload's own layer metrics, using the
// probes' costs for its estimates.
func tracedRun(res *result, w *workload, inst instance, seed int64, more func(int) bool) error {
	tr := newTracer()
	var traced, plain sample
	gc0 := readGC()
	for r := 0; more(r); r++ {
		t, into := tr, &traced
		if r%2 == 1 {
			t, into = nil, &plain
		}
		into.add(measure(w, inst, seed, r, forRounds(1), 0, t))
	}
	gc1 := readGC()
	m := map[string]float64{}
	for _, lm := range perLayer {
		m[lm.name] = 0
	}
	if err := runProbes(m); err != nil {
		return err
	}
	inst.layers(m)
	if plain.verified() > 0 && traced.verified() > 0 {
		tps := float64(traced.verified()) / traced.wall.Seconds()
		pps := float64(plain.verified()) / plain.wall.Seconds()
		m["host.tracing_overhead_pct"] = 100 * (pps/tps - 1)
	}
	m["host.gc_cycles"] = float64(traced.numGC + plain.numGC)
	if cpu := gc1.total - gc0.total; cpu > 0 {
		m["host.gc_cpu_pct"] = 100 * (gc1.gc - gc0.gc) / cpu
	}
	m["host.peak_rss_mb"] = peakRSSMB()
	traced.add(&plain)
	res.fill(w, &traced, m, perLayerUnits())
	res.Spans, res.OpClass = tr.spans, tr.opClass
	return nil
}

func (r *result) fill(w *workload, s *sample, values map[string]float64, units map[string]string) {
	r.Rounds = s.rounds
	r.Attempted = s.attempted
	r.Failed = s.failed
	r.Correct = s.failed == 0 && s.attempted > 0
	r.Metrics = map[string]metric{}
	for name, unit := range units {
		r.Metrics[name] = metric{values[name], unit}
	}
	perClass, _ := s.latencies(true)
	for c, ls := range perClass {
		row := classRow{Name: w.classes[c].name, N: len(ls)}
		if len(ls) > 0 {
			sort.Float64s(ls)
			row.FloorMS, row.P50MS = percentile(ls, floorPct), percentile(ls, 50)
		}
		r.Classes = append(r.Classes, row)
	}
}

type gcCPU struct{ gc, total float64 }

func readGC() gcCPU {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return gcCPU{s[0].Value.Float64(), s[1].Value.Float64()}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: run_compute, run_comm, compile_cold or serve_mixed")
	seed := fs.Int64("seed", 1, "seed of the round permutations and the cold-request comments")
	seconds := fs.Float64("seconds", 20, "how long to measure; whole rounds only")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics (same as -layers)")
	layers := fs.Bool("layers", false, "traced run reporting the per-layer metrics")
	all := fs.Bool("all", false, "run all four workloads, one after the other")
	out := fs.String("out", "", "write the full result (classes, environment, spans) to this file")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare OLD NEW (file, comma list or directory each)")
	freeze := fs.Bool("freeze", false, "regenerate testdata/golden.json from the current tree (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two arguments: OLD NEW"))
		}
		regressed, err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *freeze:
		if err := freezeGoldens(stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	var ws []*workload
	if *all {
		ws = workloads()
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q; the workloads are run_compute, run_comm, compile_cold and serve_mixed", *name))
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *layers || *traceFlag == 1}
	file := resultFile{Schema: resultSchema}
	var last *result
	for _, w := range ws {
		// One thread per closed-loop caller: with a spare one the caller
		// and the collector's workers hop between cores, and the spread
		// between runs of one commit doubles.
		runtime.GOMAXPROCS(min(w.clients, runtime.NumCPU()))
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fail(err)
		}
		file.Results = append(file.Results, *res)
		last = res
		if *all {
			printResult(stderr, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(last.resultLine)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s: %d rounds, %d operations, %d failed\n", r.Workload, r.Rounds, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
}
