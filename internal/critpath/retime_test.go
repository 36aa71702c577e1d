package critpath_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/faultinject"
	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// retimeConfigs are the run configurations the exactness sweep covers:
// both CGCM strategies blocking and on streams, the optimized one on a
// 16 KiB device under the standard fault plan, and inspector-executor.
func retimeConfigs(t *testing.T) map[string]core.Options {
	spec, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Options{
		"unopt":                {Strategy: core.CGCMUnoptimized},
		"unopt-async":          {Strategy: core.CGCMUnoptimized, Async: true},
		"opt":                  {Strategy: core.CGCMOptimized},
		"opt-async":            {Strategy: core.CGCMOptimized, Async: true},
		"opt-16k-faults":       {Strategy: core.CGCMOptimized, GPUMemBytes: 16384, FaultSpec: spec},
		"opt-async-16k-faults": {Strategy: core.CGCMOptimized, Async: true, GPUMemBytes: 16384, FaultSpec: spec},
		"inspector":            {Strategy: core.InspectorExecutor},
	}
}

// perturbed returns the default cost model with every field moved by a
// seeded factor: each float scaled into [0.25, 4), the core count
// redrawn, and SyncAfterLaunch flipped.
func perturbed(seed int64) machine.CostModel {
	r := rand.New(rand.NewSource(seed))
	c := machine.DefaultCostModel()
	for _, f := range []*float64{&c.CPUOp, &c.GPUOp, &c.LaunchCPU, &c.LaunchGPU,
		&c.TransferLat, &c.TransferPerB, &c.AllocGPU, &c.InspectorPerOp} {
		*f *= 0.25 + 3.75*r.Float64()
	}
	c.GPUCores = 1 + r.Intn(1024)
	c.SyncAfterLaunch = !c.SyncAfterLaunch
	return c
}

func tracedRun(t *testing.T, p bench.Program, opts core.Options) *core.Report {
	t.Helper()
	opts.Tracer = trace.New()
	opts.Workers = 1 // the sweep's programs already run in parallel
	rep, err := core.CompileAndRun(p.Name, p.Source, opts)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return rep
}

// TestRetimeIsExact holds the clock's one promise: a run's recorded verbs,
// retimed at its own cost model, give back its Stats field for field, and
// retimed at another model give the Stats of a re-run under that model —
// whose verbs are the same list. The other models are three seeded
// perturbations of every field and the zero-comm and gpu-2x scenarios.
// -short and the race detector check a sample of programs.
func TestRetimeIsExact(t *testing.T) {
	def := machine.DefaultCostModel()
	models := map[string]machine.CostModel{
		"seed1":     perturbed(1),
		"seed2":     perturbed(2),
		"seed3":     perturbed(3),
		"zero-comm": critpath.ScenarioZeroComm.Cost(def),
		"gpu-2x":    critpath.ScenarioGPU2x.Cost(def),
	}
	for _, name := range sweepPrograms() {
		p, _ := bench.ByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for cname, opts := range retimeConfigs(t) {
				rep := tracedRun(t, p, opts)
				if len(rep.Verbs) == 0 {
					t.Fatalf("%s: traced run recorded no verbs", cname)
				}
				if got := machine.Retime(rep.Verbs, def); got != rep.Stats {
					t.Errorf("%s: retime at the run's cost model:\ngot  %+v\nwant %+v", cname, got, rep.Stats)
				}
				for mname, cost := range models {
					o := opts
					o.Cost = &cost
					again := tracedRun(t, p, o)
					if got := machine.Retime(rep.Verbs, cost); got != again.Stats {
						t.Errorf("%s under %s: retime differs from a re-run:\ngot  %+v\nwant %+v", cname, mname, got, again.Stats)
					}
					if !reflect.DeepEqual(again.Verbs, rep.Verbs) {
						t.Errorf("%s under %s: the re-run recorded other verbs (%d vs %d)", cname, mname, len(again.Verbs), len(rep.Verbs))
					}
				}
			}
		})
	}
}
