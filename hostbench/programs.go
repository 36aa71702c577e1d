package main

import (
	"fmt"
	"strconv"
	"strings"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
)

// faultSpec is the fault schedule of the opt-faults configuration: with
// the 256 KiB device it drives the runtime's evict/retry/degrade ladder
// through the same machine verbs the sync and async configurations use.
const faultSpec = "seed=7,htod=0.2,dtoh=0.2,alloc=0.1"

// configOptions returns the core.Options of a named configuration.
// Workers is 1 everywhere so a number measures dispatch, not the Go
// scheduler.
func configOptions(config string) (core.Options, error) {
	o := core.Options{Workers: 1}
	switch config {
	case "sequential":
		o.Strategy = core.Sequential
	case "unopt":
		o.Strategy = core.CGCMUnoptimized
	case "unopt-async":
		o.Strategy = core.CGCMUnoptimized
		o.Async = true
	case "opt":
		o.Strategy = core.CGCMOptimized
	case "opt-async-remarks":
		o.Strategy = core.CGCMOptimized
		o.Async = true
		o.Remarks = true
	case "opt-faults":
		spec, err := faultinject.ParseSpec(faultSpec)
		if err != nil {
			return o, err
		}
		o.Strategy = core.CGCMOptimized
		o.GPUMemBytes = 262144
		o.FaultSpec = spec
	default:
		return o, fmt.Errorf("unknown configuration %q", config)
	}
	return o, nil
}

// Sizes of the benchmark-owned programs. They are part of the frozen
// workloads: the goldens pin the statistics these sizes produce.
const (
	pingpongLaunches  = 100
	jaggedRows        = 256
	jaggedSteps       = 8
	manyUnits         = 4096
	manyUnitsLaunches = 300
	tinyVariants      = 8
)

// source returns the mini-C text of a suite program or a
// benchmark-owned one (gen<N>, tiny<v>, pingpong, jagged, manyunits).
func source(program string) (string, error) {
	if p, ok := bench.ByName(program); ok {
		return p.Source, nil
	}
	switch program {
	case "pingpong":
		return genPingPong(pingpongLaunches, progSeed), nil
	case "jagged":
		return genJagged(jaggedRows, jaggedSteps, progSeed), nil
	case "manyunits":
		return genManyUnits(manyUnits, manyUnitsLaunches, progSeed), nil
	}
	if n, ok := numbered(program, "gen"); ok && n > 0 {
		return genLoopGroups(n, progSeed), nil
	}
	if v, ok := numbered(program, "tiny"); ok && v < tinyVariants {
		return genTiny(v, progSeed), nil
	}
	return "", fmt.Errorf("unknown program %q", program)
}

// tinyName names variant v of the tiny program.
func tinyName(v int) string { return fmt.Sprintf("tiny%d", v) }

func numbered(s, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil && n >= 0
}

// goldenKey names a program × configuration in testdata/golden.json.
func goldenKey(program, config string) string { return program + "/" + config }

func splitKey(key string) (program, config string) {
	program, config, _ = strings.Cut(key, "/")
	return program, config
}

// compileKey compiles the program × configuration a golden key names.
func compileKey(key string) (*core.Program, error) {
	program, config := splitKey(key)
	src, err := source(program)
	if err != nil {
		return nil, err
	}
	opts, err := configOptions(config)
	if err != nil {
		return nil, err
	}
	return core.Compile(program, src, opts)
}
