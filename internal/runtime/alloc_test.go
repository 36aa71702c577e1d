package runtime_test

import (
	"testing"

	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// verbScript drives one fresh machine and runtime through a fixed sequence
// of runtime-library verbs — singly and doubly indirect units, copies both
// ways, skips of both kinds — with no observer attached. It uses only the
// exported API, so the same file measures any commit.
func verbScript(t testing.TB, async bool) {
	m := machine.New(machine.DefaultCostModel())
	rt := runtimelib.New(m)
	if async {
		rt.EnableResilience(runtimelib.DefaultResilience())
		rt.EnableAsync()
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b, arr := rt.Malloc(4096), rt.Malloc(4096), rt.Malloc(16)
	check(m.Store(arr, 8, a))
	check(m.Store(arr+8, 8, b))
	for i := 0; i < 8; i++ {
		_, err := rt.Map(a)
		check(err)
		_, err = rt.Map(a + 8) // residency skip
		check(err)
		rt.KernelLaunched()
		m.LaunchKernelAt("k", 0, 6400, 100)
		check(rt.Unmap(a))
		check(rt.Unmap(a)) // epoch skip
		check(rt.Release(a))
		check(rt.Release(a))
	}
	for i := 0; i < 4; i++ {
		_, err := rt.MapArray(arr)
		check(err)
		rt.KernelLaunched()
		m.LaunchKernelAt("k2", 0, 6400, 100)
		check(rt.UnmapArray(arr))
		check(rt.ReleaseArray(arr))
	}
	m.Sync()
}

// TestVerbScriptAllocations bounds what accounting may cost when nobody is
// looking: with no tracer, profile or registry attached, booking an event
// allocates nothing, so the script allocates only what its segments,
// device copies and tracking structures need. The bounds are a tenth above
// what the script measures (50 and 55) now that segments, tree nodes and
// AllocInfos come from per-run slabs (77 and 69 before; 87 and 79 before
// the ledger kept one row per unit and no side maps; 130 and 82 before
// device buffers, tree nodes and device-copy names were recycled); an
// event that escapes to the heap, a span name built with no tracer to read
// it, or a map/release pair that allocates again shows up here as a
// higher count.
func TestVerbScriptAllocations(t *testing.T) {
	for _, c := range []struct {
		name  string
		async bool
		bound float64
	}{
		{"blocking", false, 55},
		{"streams", true, 61},
	} {
		got := testing.AllocsPerRun(20, func() { verbScript(t, c.async) })
		t.Logf("%s: %.0f allocations per script", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.0f allocations per script, bound %.0f", c.name, got, c.bound)
		}
	}
}
