package runtime

import (
	"testing"

	"cgcm/internal/faultinject"
)

// TestFlushLadderSameBlockingAndAsync: Unmap and UnmapAsync climb the same
// retry-then-rescue ladder, so a flush whose DtoH copy faults transiently
// past the retry budget consumes the same fault-plan decisions, retries
// the same number of times, is rescued once, and lands the same bytes
// whether it was issued blocking or on the flush stream.
func TestFlushLadderSameBlockingAndAsync(t *testing.T) {
	run := func(async bool) (Stats, int64) {
		rt, m := newRT()
		spec, err := faultinject.ParseSpec("dtoh@0+1+2")
		if err != nil {
			t.Fatal(err)
		}
		plan := spec.NewPlan()
		m.SetFaultPlan(plan)
		rt.EnableResilience(Resilience{MaxRetries: 2, BackoffBase: 1e-6})
		if async {
			rt.EnableAsync()
		}
		p := rt.Malloc(64)
		dev, err := rt.MapAsync(p)
		if err != nil {
			t.Fatal(err)
		}
		rt.KernelLaunched()
		m.Store(dev, 8, 777)
		if err := rt.UnmapAsync(p); err != nil {
			t.Fatalf("async=%v: flush did not land: %v", async, err)
		}
		if v, _ := m.Load(p, 8); v != 777 {
			t.Errorf("async=%v: host holds %d after the rescued flush, want 777", async, v)
		}
		if got := m.Stats().RescueCopies; got != 1 {
			t.Errorf("async=%v: machine counted %d rescue copies, want 1", async, got)
		}
		return rt.Stats(), plan.Calls(faultinject.VerbDtoH)
	}
	blocking, blockingCalls := run(false)
	async, asyncCalls := run(true)
	if blocking != async {
		t.Errorf("RTStats differ:\nblocking %+v\nasync    %+v", blocking, async)
	}
	if blocking.Retries != 2 || blocking.RescueCopies != 1 || blocking.DtoHCopies != 1 {
		t.Errorf("ladder counters: %+v, want Retries=2 RescueCopies=1 DtoHCopies=1", blocking)
	}
	if blockingCalls != 3 || asyncCalls != 3 {
		t.Errorf("DtoH fault-plan decisions: blocking %d, async %d, want 3 each", blockingCalls, asyncCalls)
	}
}
