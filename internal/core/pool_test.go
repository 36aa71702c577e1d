package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/interp"
	"cgcm/internal/trace"
)

// denyAll is a tenant quota of zero: every device allocation is refused,
// so the run degrades to CPU fallback at module load.
type denyAll struct{}

func (denyAll) Reserve(int64) error { return errors.New("quota is zero") }
func (denyAll) Release(int64)       {}

// swappedGlobals frees nothing, so no Free advances the machine's gen
// after its last access, and a reset files its two same-size globals'
// buffers so that the next run's module load hands them out swapped: an
// inline cache kept across the reset, by a machine whose gen went back
// or stood still and an interpreter that did not clear its caches, reads
// the other global's initializer.
const swappedGlobals = `float g1[4] = {1.0, 2.0, 3.0, 4.0};
float g2[4] = {5.0, 6.0, 7.0, 8.0};
int main() {
	print_float(g1[0] + 10.0 * g2[0]);
	return 0;
}`

// runVariant is one way of running a Program: it sets what it needs on
// the Program's options (restored after the run) and the run's config.
type runVariant struct {
	name string
	set  func(o *core.Options, rc *core.RunConfig)
}

var poolVariants = []runVariant{
	{"plain", func(*core.Options, *core.RunConfig) {}},
	{"governor-denied", func(_ *core.Options, rc *core.RunConfig) { rc.MemGovernor = denyAll{} }},
	{"max-steps", func(o *core.Options, _ *core.RunConfig) { o.Limits = &interp.Limits{MaxSteps: 3000} }},
	{"canceled", func(_ *core.Options, rc *core.RunConfig) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rc.Ctx = ctx
	}},
	{"traced-profiled", func(o *core.Options, _ *core.RunConfig) { o.Tracer, o.Profile = trace.New(), true }},
}

// runOutcome is everything a run hands back, in comparable form.
type runOutcome struct {
	json  string
	err   string
	verbs any
	spans any
}

func runAs(t *testing.T, p *core.Program, v runVariant) runOutcome {
	t.Helper()
	saved := p.Opts
	defer func() { p.Opts = saved }()
	var rc core.RunConfig
	v.set(&p.Opts, &rc)
	rep, err := p.RunWith(rc)
	var o runOutcome
	if err != nil {
		o.err = err.Error()
	}
	if rep != nil {
		b, jerr := json.Marshal(rep)
		if jerr != nil {
			t.Fatal(jerr)
		}
		o.json, o.verbs, o.spans = string(b), rep.Verbs, rep.Spans
	}
	return o
}

// TestPooledRunsMatchFreshRuns: a Program's runs reuse a pooled machine,
// runtime and interpreter, reset; every run must still report what a
// fresh Program's first run does. Each suite program under each strategy,
// sync and async, with no faults and under the standard fault plan on a
// 256 KiB and a 16 KiB device, runs every variant twice through one
// Program, interleaved — a governor that denies all device memory, a
// MaxSteps failure and a canceled run (which drop their set), a traced
// and profiled one (which hands its record off) — and each outcome
// (Report JSON, error, verbs and spans) must equal the same variant's
// first run on a fresh Program. -short and -race check three programs.
func TestPooledRunsMatchFreshRuns(t *testing.T) {
	spec, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	programs := bench.All()
	if testing.Short() || raceEnabled {
		programs = programs[:3]
	}
	programs = append(programs, bench.Program{Name: "swapped-globals", Source: swappedGlobals})
	devices := []poolDevice{{"plain", 0, nil}, {"faults-256k", 256 << 10, spec}, {"faults-16k", 16 << 10, spec}}
	for _, bp := range programs {
		t.Run(bp.Name, func(t *testing.T) {
			t.Parallel()
			poolMatchesFresh(t, bp, devices)
		})
	}
}

func poolMatchesFresh(t *testing.T, bp bench.Program, devices []poolDevice) {
	for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
		for _, async := range []bool{false, true} {
			for _, d := range devices {
				opts := core.Options{Strategy: s, Async: async, GPUMemBytes: d.bytes, FaultSpec: d.spec}
				name := fmt.Sprintf("%s/async=%v/%s", s, async, d.name)
				p, err := core.Compile(bp.Name+".c", bp.Source, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := make([]runOutcome, len(poolVariants))
				for i, v := range poolVariants {
					want[i] = runAs(t, p.Fresh(), v)
				}
				for round := 0; round < 2; round++ {
					for i, v := range poolVariants {
						if got := runAs(t, p, v); !reflect.DeepEqual(got, want[i]) {
							t.Errorf("%s: %s run %d differs from a fresh Program's:\n got %.300s %s\nwant %.300s %s",
								name, v.name, round+1, got.json, got.err, want[i].json, want[i].err)
						}
					}
				}
			}
		}
	}
}

// poolDevice is a device the pooled runs see: its capacity and fault plan.
type poolDevice struct {
	name  string
	bytes int64
	spec  *faultinject.Spec
}

// TestConcurrentPooledRuns: goroutines running one Program at once take
// distinct sets from its pool and put them back; every Report equals a
// fresh Program's, with one worker per launch and with several.
func TestConcurrentPooledRuns(t *testing.T) {
	bp, _ := bench.ByName("nw")
	for _, workers := range []int{1, 4} {
		p, err := core.Compile(bp.Name+".c", bp.Source, core.Options{Strategy: core.CGCMUnoptimized, Async: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := runAs(t, p.Fresh(), poolVariants[0])
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					rep, err := p.Run()
					if err != nil {
						t.Error(err)
						return
					}
					b, _ := json.Marshal(rep)
					if string(b) != want.json {
						t.Errorf("workers=%d: a concurrent pooled run differs from a fresh Program's", workers)
					}
				}
			}()
		}
		wg.Wait()
	}
}
