package core_test

import (
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/metrics"
	"cgcm/internal/trace"
)

// accountingConfigs are the five ways TestAccountingFoldsAgree runs each
// program: blocking copies, stream copies, a small faulty device (retries,
// evictions), a device too small for anything (the run degrades at the
// first map), and a device that dies at its third launch with its
// device-to-host engine already dead (degradation flushes the dirty units
// over the rescue channel).
func accountingConfigs(t *testing.T) []struct {
	name string
	opts core.Options
} {
	t.Helper()
	spec := func(text string) *faultinject.Spec {
		s, err := faultinject.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"unopt", core.Options{Strategy: core.CGCMUnoptimized}},
		{"unopt-async", core.Options{Strategy: core.CGCMUnoptimized, Async: true}},
		{"opt-faults", core.Options{Strategy: core.CGCMOptimized, GPUMemBytes: 256 << 10, FaultSpec: spec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")}},
		{"opt-degraded", core.Options{Strategy: core.CGCMOptimized, GPUMemBytes: 64}},
		{"opt-dying", core.Options{Strategy: core.CGCMOptimized, FaultSpec: spec("fail=dtoh@0,fail=launch@2")}},
	}
}

// TestAccountingFoldsAgree runs programs with every observer attached and
// holds the tallies of one run to each other: Stats, RTStats, the ledger,
// the profile, the metrics snapshot and the spans are all folds of the
// same events, so they must agree on every count they share —
// on fault, eviction and degradation paths too, not only on a clean run.
// Between them the configurations must reach every such path, or the
// agreement is not being tested where it can break.
func TestAccountingFoldsAgree(t *testing.T) {
	var seen, all struct{ overlap, retries, evictions, rescues, evictFlushes, degraded bool }
	all.overlap, all.retries, all.evictions, all.rescues, all.evictFlushes, all.degraded = true, true, true, true, true, true
	for _, prog := range []string{"nw", "lud", "gramschmidt", "gemm"} {
		p, ok := bench.ByName(prog)
		if !ok {
			t.Fatalf("program %s missing from the suite", prog)
		}
		for _, cfg := range accountingConfigs(t) {
			t.Run(prog+"/"+cfg.name, func(t *testing.T) {
				opts := cfg.opts
				opts.Tracer = trace.New()
				opts.Profile = true
				opts.Metrics = metrics.New()
				rep, err := core.CompileAndRun(p.Name, p.Source, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkAccounting(t, rep)
				st, rts := rep.Stats, rep.RTStats
				seen.overlap = seen.overlap || st.OverlappedBytes > 0
				seen.retries = seen.retries || rts.Retries > 0
				seen.evictions = seen.evictions || rts.Evictions > 0
				seen.rescues = seen.rescues || rts.RescueCopies > 0
				seen.evictFlushes = seen.evictFlushes || st.NumDtoH > rts.DtoHCopies
				seen.degraded = seen.degraded || st.FallbackKernels > 0
			})
		}
	}
	if seen != all {
		t.Errorf("paths reached: %+v", seen)
	}
}

func checkAccounting(t *testing.T, rep *core.Report) {
	t.Helper()
	st, rts, snap := rep.Stats, rep.RTStats, rep.Metrics
	eq := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}

	// Ledger sums against RTStats, and the ledger by unit name for the
	// profile comparison below.
	type xfer struct{ hb, hc, db, dc int64 }
	byName := map[string]xfer{}
	var sum trace.UnitStats
	for _, u := range rep.Comm.Units {
		sum.Maps += u.Maps
		sum.Unmaps += u.Unmaps
		sum.Releases += u.Releases
		sum.HtoDCopies += u.HtoDCopies
		sum.DtoHCopies += u.DtoHCopies
		sum.ResidencySkips += u.ResidencySkips
		sum.EpochSkips += u.EpochSkips
		sum.Evictions += u.Evictions
		x := byName[u.Name]
		byName[u.Name] = xfer{x.hb + u.BytesHtoD, x.hc + u.HtoDCopies, x.db + u.BytesDtoH, x.dc + u.DtoHCopies}
	}
	eq("ledger HtoDCopies", sum.HtoDCopies, rts.HtoDCopies)
	eq("ledger DtoHCopies", sum.DtoHCopies, rts.DtoHCopies)
	eq("ledger ResidencySkips", sum.ResidencySkips, rts.ResidencySkips)
	eq("ledger EpochSkips", sum.EpochSkips, rts.EpochSkips)
	eq("ledger Evictions", sum.Evictions, rts.Evictions)
	eq("ledger overlapped bytes", rep.Comm.OverlappedBytes(), st.OverlappedBytes)

	// Every counter that mirrors a Stats field, and the degraded gauge.
	degraded := int64(0)
	if rts.Degraded {
		degraded = 1
	}
	for name, want := range map[string]int64{
		"runtime.map.calls":             rts.Maps,
		"runtime.unmap.calls":           rts.Unmaps,
		"runtime.release.calls":         rts.Releases,
		"runtime.htod.copies":           rts.HtoDCopies,
		"runtime.dtoh.copies":           rts.DtoHCopies,
		"runtime.epoch.skips":           rts.EpochSkips,
		"runtime.residency.skips":       rts.ResidencySkips,
		"runtime.evictions":             rts.Evictions,
		"runtime.retries":               rts.Retries,
		"runtime.rescue.copies":         rts.RescueCopies,
		"machine.kernel.launches":       st.NumKernels,
		"machine.faults.injected":       st.InjectedFaults,
		"machine.fallback.kernels":      st.FallbackKernels,
		"machine.xfer.overlapped_bytes": st.OverlappedBytes,
	} {
		eq(name, snap.Counter(name), want)
	}
	eq("runtime.degraded", int64(snap.Gauge("runtime.degraded")), degraded)
	eq("RTStats.RescueCopies", rts.RescueCopies, st.RescueCopies)
	eq("RTStats.FallbackKernels", rts.FallbackKernels, st.FallbackKernels)

	// The per-event histograms.
	for name, want := range map[string][2]int64{
		"machine.xfer.htod_bytes":         {st.NumHtoD, st.BytesHtoD},
		"machine.xfer.dtoh_bytes":         {st.NumDtoH, st.BytesDtoH},
		"machine.kernel.duration_seconds": {st.NumKernels, -1},
	} {
		h := snap.Histogram(name)
		if h == nil {
			t.Errorf("%s missing from the snapshot", name)
			continue
		}
		eq(name+" count", h.Count, want[0])
		if want[1] >= 0 {
			eq(name+" sum", int64(h.Sum), want[1])
		}
	}

	// Profile transfer rows against the ledger, per unit name.
	prof := rep.Profile.UnitTotals()
	for name, x := range byName {
		pu := prof[name]
		if got := (xfer{pu.HtoDBytes, pu.HtoDCount, pu.DtoHBytes, pu.DtoHCount}); got != x {
			t.Errorf("unit %q: profile %+v, ledger %+v", name, got, x)
		}
	}
	for name := range prof {
		if _, ok := byName[name]; !ok {
			t.Errorf("unit %q in the profile but not in the ledger", name)
		}
	}

	// Profile totals against Stats: GPU work and CPU-fallback work are
	// attributed apart, and every launch, on either device, has a row.
	p := rep.Profile
	eq("Profile.TotalGPUOps", p.TotalGPUOps, st.GPUOps)
	eq("Profile.TotalFallbackOps", p.TotalFallbackOps, st.FallbackOps)
	var launches, fallbacks int64
	for _, s := range p.Sites {
		launches += s.Launches
		fallbacks += s.FallbackLaunches
	}
	eq("profile launches", launches+fallbacks, st.NumKernels+st.FallbackKernels)
	eq("profile GPU launches", launches, st.NumKernels)

	// Spans. A device-to-host copy is followed on the runtime lane by the
	// span of the call that asked for it: an unmap, or — for the dirty
	// flush of an eviction or of degradation — an evict.
	kinds := map[trace.Kind]int64{}
	bytes := map[trace.Kind]int64{}
	var evictFlushes int64
	for i, s := range rep.Spans {
		kinds[s.Kind]++
		bytes[s.Kind] += s.Bytes
		if s.Kind != trace.KindDtoH {
			continue
		}
		for _, next := range rep.Spans[i+1:] {
			if next.Kind == trace.KindUnmap || next.Kind == trace.KindEvict {
				if next.Kind == trace.KindEvict {
					evictFlushes++
				}
				break
			}
		}
	}
	eq("unmap spans", kinds[trace.KindUnmap], sum.Unmaps)
	eq("release spans", kinds[trace.KindRelease], sum.Releases)
	eq("evict spans", kinds[trace.KindEvict], sum.Evictions)
	shadowUploads := sum.HtoDCopies - (sum.Maps - sum.ResidencySkips)
	eq("map spans", kinds[trace.KindMap], sum.Maps+shadowUploads)
	eq("HtoD span bytes", bytes[trace.KindHtoD], st.BytesHtoD)
	eq("DtoH span bytes", bytes[trace.KindDtoH], st.BytesDtoH)
	eq("HtoD spans", kinds[trace.KindHtoD], st.NumHtoD)
	eq("DtoH spans", kinds[trace.KindDtoH], st.NumDtoH)
	eq("kernel spans", kinds[trace.KindKernel], st.NumKernels)
	eq("fallback spans", kinds[trace.KindFallback], st.FallbackKernels)

	// The one deliberate difference between the machine's and the
	// runtime's copy counts: a flush the program did not ask for.
	eq("Stats.NumDtoH - RTStats.DtoHCopies", st.NumDtoH-rts.DtoHCopies, evictFlushes)
	eq("Stats.NumHtoD", st.NumHtoD, rts.HtoDCopies)
	if t.Failed() {
		t.Logf("Stats %+v\nRTStats %+v", st, rts)
	}
}
