package main

import (
	"time"

	"cgcm/internal/bench"
)

// The four workloads. Their class lists, multiplicities and program
// sizes are frozen: every later performance claim names one of these
// workloads, and testdata/golden.json pins what each class computes.

var (
	computePrograms = []string{"jacobi-2d-imper", "hotspot", "2mm", "correlation", "covariance", "adi", "doitgen", "fm"}
	commPrograms    = []string{"nw", "lu", "ludcmp", "lud", "cfd", "gramschmidt"}
	ownedPrograms   = []string{"pingpong", "jagged", "manyunits"}
	// genSizes are the loop-group counts of the generated compile inputs,
	// cheapest first; the last one sets compile_cold's slowest class.
	genSizes = []string{"gen8", "gen16", "gen32"}
)

func workloads() []*workload {
	var compute, comm, compile []opClass
	for _, p := range computePrograms {
		compute = append(compute, opClass{name: goldenKey(p, "sequential"), mult: 1}, opClass{name: goldenKey(p, "opt"), mult: 1})
	}
	for _, p := range commPrograms {
		for _, cfg := range []string{"unopt", "unopt-async", "opt-faults"} {
			comm = append(comm, opClass{name: goldenKey(p, cfg), mult: 1})
		}
	}
	for _, p := range ownedPrograms {
		comm = append(comm, opClass{name: goldenKey(p, "unopt"), mult: 1})
	}
	for _, p := range bench.All() {
		compile = append(compile,
			opClass{name: goldenKey(p.Name, "opt"), band: "suite", mult: 1},
			opClass{name: goldenKey(p.Name, "opt-async-remarks"), band: "suite", mult: 1})
	}
	// 48 suite compiles, then 3 + 3 + 1 generated ones: p50 falls in the
	// suite band and p95 inside the gen16 band, each 2% clear of an edge.
	for i, mult := range []int{3, 3, 1} {
		compile = append(compile, opClass{name: goldenKey(genSizes[i], "opt"), band: genSizes[i], mult: mult})
	}
	keys := func(cs []opClass) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.name
		}
		return out
	}
	return []*workload{
		{
			name:    "run_compute",
			why:     "runs of precompiled compute-bound programs, sequential and cgcm-optimized: the interpreter does over 90% of the work, so dispatch changes show here and nowhere else",
			clients: 1, calEvery: 40 * time.Millisecond, classes: compute, prepare: prepareRuns(keys(compute)),
		},
		{
			name:    "run_comm",
			why:     "runs of communication-bound programs sync, async and under faults on a small device: runtime map/unmap, machine copies, the ledger and GC dominate, the interpreter does not",
			clients: 1, calEvery: 40 * time.Millisecond, classes: comm, prepare: prepareRuns(keys(comm)),
		},
		{
			name:    "compile_cold",
			why:     "core.Compile of the 24 suite programs and of generated 8/16/32-group programs, no run: front end and passes do all the work and the generated sizes expose super-linear passes",
			clients: 1, calEvery: 40 * time.Millisecond, classes: compile, prepare: prepareCompiles(keys(compile)),
			bands: append([]string{"suite"}, genSizes...),
		},
		{
			name:    "serve_mixed",
			why:     "POST /run from 2 closed-loop clients, 90% compile-cache hits: the only path through decode, admit, schedule, cache, compile, run and encode, under concurrency",
			clients: 2, calEvery: 150 * time.Millisecond,
			classes: []opClass{
				tinyWarm:  {name: "tiny_warm", band: "tiny_warm", mult: 60},
				smallWarm: {name: "small_warm", band: "small_warm", mult: 30},
				tinyCold:  {name: "tiny_cold", band: "tiny_cold", mult: 7},
				smallCold: {name: "small_cold", band: "small_cold", mult: 3},
			},
			bands:   []string{"tiny_warm", "tiny_cold", "small_warm", "small_cold"},
			prepare: prepareServe,
		},
	}
}

// goldenKeys lists every program × configuration the workloads verify
// against, split by golden kind; -freeze writes exactly these.
func goldenKeys() (run, compile []string) {
	for _, w := range workloads() {
		for _, c := range w.classes {
			switch w.name {
			case "run_compute", "run_comm":
				run = append(run, c.name)
			case "compile_cold":
				compile = append(compile, c.name)
			}
		}
	}
	for v := 0; v < tinyVariants; v++ {
		run = append(run, goldenKey(tinyName(v), "opt"))
	}
	for _, p := range smallPrograms {
		run = append(run, goldenKey(p, "opt"))
	}
	return run, compile
}
