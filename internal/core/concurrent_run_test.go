package core_test

import (
	"reflect"
	"sync"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/trace"
)

// TestConcurrentRunsIdentical: Run is read-only on the compiled Program,
// so many goroutines running the same Program concurrently must produce
// byte-identical Reports. Run under -race this also proves the absence
// of data races on shared compile state. The interpreter lowers a module
// on its first run and keeps the result on the module, so the case that
// matters most is "first": every goroutine released at once onto a
// Program nothing has run yet, all of them racing to be the one that
// lowers it. "warm" runs the same Program once beforehand.
func TestConcurrentRunsIdentical(t *testing.T) {
	for _, warm := range []bool{false, true} {
		name := map[bool]string{false: "first", true: "warm"}[warm]
		t.Run(name, func(t *testing.T) { concurrentRunsIdentical(t, warm) })
	}
}

func concurrentRunsIdentical(t *testing.T, warm bool) {
	p, ok := bench.ByName("jacobi-2d-imper")
	if !ok {
		t.Fatal("jacobi missing")
	}
	tr := trace.New()
	prog, err := core.Compile(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Kernels() == 0 || prog.LaunchSites() == 0 {
		t.Fatalf("compile census empty: kernels=%d launchSites=%d", prog.Kernels(), prog.LaunchSites())
	}
	warmRuns := 0
	if warm {
		if _, err := prog.Run(); err != nil {
			t.Fatal(err)
		}
		warmRuns = 1
	}

	const n = 8
	reps := make([]*core.Report, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rep, err := prog.Run()
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			reps[i] = rep
		}(i)
	}
	close(start)
	wg.Wait()

	base := reps[0]
	if base == nil {
		t.Fatal("first run failed")
	}
	for i := 1; i < n; i++ {
		r := reps[i]
		if r == nil {
			continue
		}
		if r.Output != base.Output {
			t.Errorf("run %d output diverged", i)
		}
		if r.Stats != base.Stats {
			t.Errorf("run %d stats diverged: %+v vs %+v", i, r.Stats, base.Stats)
		}
		if r.RTStats != base.RTStats {
			t.Errorf("run %d runtime stats diverged: %+v vs %+v", i, r.RTStats, base.RTStats)
		}
		if !reflect.DeepEqual(r.Comm, base.Comm) {
			t.Errorf("run %d communication ledger diverged:\n%s\nvs\n%s", i, r.Comm, base.Comm)
		}
		if !reflect.DeepEqual(r.Spans, base.Spans) {
			t.Errorf("run %d spans diverged (%d vs %d)", i, len(r.Spans), len(base.Spans))
		}
		if r.Promotions != base.Promotions || r.GlueKernels != base.GlueKernels ||
			r.AllocaPromotions != base.AllocaPromotions {
			t.Errorf("run %d pass counters diverged", i)
		}
	}
	// The shared sink collected every run without interleaving: a whole
	// multiple of one run's spans.
	if got := len(tr.Spans()); got != (n+warmRuns)*len(base.Spans) {
		t.Errorf("sink has %d spans, want %d runs x %d", got, n+warmRuns, len(base.Spans))
	}
}
