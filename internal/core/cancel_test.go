package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/metrics"
)

// slowVec launches far more kernels than any test deadline allows, so a
// timeout always fires mid-run: the cancellation checkpoints (step-pool
// refill and kernel-launch boundary) must stop it long before the step
// limit would.
const slowVec = `
int main() {
	int n = 256;
	float *a = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) a[i] = (float)i;
	for (int t = 0; t < 200000; t++) {
		for (int i = 0; i < n; i++) a[i] = a[i] * 1.0001 + 0.5;
	}
	float sum = 0.0;
	for (int i = 0; i < n; i++) sum += a[i];
	print_float(sum);
	free(a);
	return 0;
}`

// TestRunContextDeadlineAborts is the -timeout satellite's contract: a
// huge problem aborts cleanly at a cancellation checkpoint with the
// typed error, the partial report survives, and no goroutine leaks.
func TestRunContextDeadlineAborts(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := core.CompileAndRunContext(ctx, "slow.c", slowVec, core.Options{Strategy: core.CGCMOptimized})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("run completed despite 30ms deadline; expected a cancellation error")
	}
	var cerr *interp.CancelError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %v (%T) is not an *interp.CancelError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	if cerr.Fn == "" {
		t.Error("CancelError.Fn is empty; want the function the run was in")
	}
	if rep == nil {
		t.Fatal("no partial report alongside the cancellation error")
	}
	// The abort must be prompt — checkpoint granularity, not step-limit
	// exhaustion. Allow generous slack for loaded CI machines.
	if elapsed > 5*time.Second {
		t.Errorf("abort took %v; cancellation checkpoints are not firing", elapsed)
	}

	// The kernel-engine worker pool must fully unwind after a canceled
	// launch: poll because exiting goroutines need a moment to die.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after canceled run: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCancelImmediate: a context canceled before the run
// starts aborts before any kernel executes.
func TestRunContextCancelImmediate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.CompileAndRunContext(ctx, "slow.c", slowVec, core.Options{Strategy: core.CGCMOptimized})
	if err == nil {
		t.Fatal("run completed under a pre-canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// sumLoop returns a sequential program whose work is all pure CPU
// instructions: nothing in it flushes the CPU op counter before it ends.
func sumLoop(n int64) string {
	return fmt.Sprintf(`
int main() {
	int s = 0;
	for (int i = 0; i < %d; i++) s = s + i;
	return s;
}`, n)
}

// TestFailedRunReportsItsCPUWork: a run stopped by the step limit or by
// cancellation reports the CPU work it did, including the ops executed
// since the last flush point, which for a loop of pure instructions is
// all of them.
func TestFailedRunReportsItsCPUWork(t *testing.T) {
	opts := core.Options{Strategy: core.Sequential}
	t.Run("step limit", func(t *testing.T) {
		prog, err := core.Compile("sum.c", sumLoop(1000), opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := prog.RunWith(core.RunConfig{Metrics: metrics.New()})
		if err != nil {
			t.Fatal(err)
		}
		// One step short of the whole run: everything but `return s` —
		// a load and a ret, 3 + 1 ops, the last run of the program — ran.
		prog.Opts.Limits = &interp.Limits{MaxSteps: int64(full.Metrics.Gauge("interp.steps")) - 1}
		rep, err := prog.Run()
		if err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
			t.Fatalf("run one step short of the limit: %v", err)
		}
		if want := full.Stats.CPUOps - 4; rep.Stats.CPUOps != want {
			t.Errorf("step-limited run reports %d CPU ops, want %d", rep.Stats.CPUOps, want)
		}
		if rep.Stats.Wall <= 0 {
			t.Errorf("step-limited run reports wall %v", rep.Stats.Wall)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		rep, err := core.CompileAndRunContext(ctx, "sum.c", sumLoop(1<<40), opts)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run = %v, want a deadline error", err)
		}
		if rep.Stats.CPUOps <= 0 || rep.Stats.Wall <= 0 {
			t.Errorf("canceled run reports %d CPU ops and wall %v", rep.Stats.CPUOps, rep.Stats.Wall)
		}
	})
}

// pollCountCtx reports cancellation from its failAt-th Err call on, so a
// test can cancel "during" any one phase of a compile.
type pollCountCtx struct {
	context.Context
	polls, failAt int
}

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestCompileCanceledBeforeEveryPhase: the context is polled before each
// phase, not only before parsing, constant folding and the optimization
// block. Canceled at the k-th poll, the compile stops before the k-th
// phase of its strategy: the error names that phase and nothing from it
// on has run.
func TestCompileCanceledBeforeEveryPhase(t *testing.T) {
	for _, opts := range []core.Options{
		{Strategy: core.Sequential},
		{Strategy: core.InspectorExecutor},
		{Strategy: core.CGCMUnoptimized, Async: true},
		{Strategy: core.CGCMOptimized, Async: true},
	} {
		full, err := core.Compile("vecscale.c", vecScale, opts)
		if err != nil {
			t.Fatal(err)
		}
		var phases []string
		for _, ph := range full.Phases() {
			phases = append(phases, ph.Name)
		}
		for k := 1; k <= len(phases)+1; k++ {
			var dumps strings.Builder
			o := opts
			o.DumpWriter = &dumps
			ctx := &pollCountCtx{Context: context.Background(), failAt: k}
			prog, err := core.CompileContext(ctx, "vecscale.c", vecScale, o)
			if k > len(phases) {
				if err != nil || prog == nil {
					t.Errorf("%s: canceled after the last poll: %v", opts.Strategy, err)
				}
				continue
			}
			want := "canceled before " + phases[k-1]
			if err == nil || !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), want+": ") {
				t.Errorf("%s, canceled at poll %d: error %v, want %q wrapping context.Canceled", opts.Strategy, k, err, want)
			}
			for _, later := range phases[k-1:] {
				if strings.Contains(dumps.String(), "=== after "+later+" ===") {
					t.Errorf("%s, canceled before %s: phase %s ran anyway", opts.Strategy, phases[k-1], later)
				}
			}
		}
	}
}
