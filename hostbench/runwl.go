package main

import (
	"bytes"
	"fmt"
	"time"

	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// runInstance serves run_compute and run_comm: every class is one
// precompiled program, and an operation is one run of it on a fresh
// simulated machine.
type runInstance struct {
	keys  []string
	progs []*core.Program
	gold  []runGolden

	// Counters over the traced operations, for layers().
	traced        int
	opNS, runNS   int64 // whole operation; interp.New + interp.Run
	seqOps, seqNS int64 // Stats.CPUOps and interp.Run time, sequential classes
	optOps, optNS int64 // Stats.GPUOps and interp.Run time, cgcm-optimized classes
	stats         machine.Stats
	rt            runtimelib.Stats
	asyncHtoD     int64 // bytes moved by classes running with Options.Async
	asyncDtoH     int64
}

func prepareRuns(keys []string) func(*goldens) (instance, error) {
	return func(g *goldens) (instance, error) {
		ri := &runInstance{keys: keys}
		for _, key := range keys {
			gold, ok := g.Run[key]
			if !ok {
				return nil, fmt.Errorf("no run golden for %s", key)
			}
			p, err := compileKey(key)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			ri.progs = append(ri.progs, p)
			ri.gold = append(ri.gold, gold)
		}
		return ri, nil
	}
}

func (ri *runInstance) do(c, _ int, _ uint64, tr *tracer, op int) (time.Duration, error) {
	p := ri.progs[c]
	if tr == nil {
		t0 := time.Now()
		rep, err := p.Run()
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		return lat, ri.gold[c].verify(resultOf(rep))
	}
	root := tr.begin("hostbench.op", -1, op)
	res, runNS, err := assembledRun(p, tr, root, op)
	tr.end(root)
	lat := time.Duration(tr.dur(root))
	if err != nil {
		return lat, err
	}
	ri.traced++
	ri.opNS += lat.Nanoseconds()
	ri.runNS += runNS
	switch {
	case p.Opts.Strategy == core.Sequential:
		ri.seqOps += res.stats.CPUOps
		ri.seqNS += runNS
	case p.Opts.Strategy == core.CGCMOptimized:
		ri.optOps += res.stats.GPUOps
		ri.optNS += runNS
	}
	if p.Opts.Async {
		ri.asyncHtoD += res.stats.BytesHtoD
		ri.asyncDtoH += res.stats.BytesDtoH
	}
	addStats(&ri.stats, res.stats)
	addRTStats(&ri.rt, res.rtStats)
	return lat, ri.gold[c].verify(res)
}

// assembledRun is Program.Run taken apart so each layer's constructor
// and the interpreter's Run get their own span: machine.New ->
// runtime.New -> interp.New -> Run, configured exactly as
// core.Program.RunWith configures them for the options hostbench uses
// (no tracer, profile, metrics, cost override, limits or governor).
// checkDrivers holds it to Program.Run's Stats.
func assembledRun(p *core.Program, tr *tracer, root, op int) (res runResult, runNS int64, err error) {
	o := p.Opts
	if o.Tracer != nil || o.Profile || o.Metrics != nil || o.Cost != nil || o.Limits != nil || o.RaceCheck {
		return res, 0, fmt.Errorf("assembledRun does not model options %+v", o)
	}
	s := tr.begin("machine.New", root, op)
	mach := machine.New(machine.DefaultCostModel())
	if o.GPUMemBytes > 0 {
		mach.SetGPUCapacity(o.GPUMemBytes)
	}
	if o.FaultSpec != nil && !o.FaultSpec.Empty() {
		mach.SetFaultPlan(o.FaultSpec.NewPlan())
	}
	tr.end(s)

	s = tr.begin("runtime.New", root, op)
	rt := runtimelib.New(mach)
	if o.GPUMemBytes > 0 || mach.FaultPlan() != nil {
		rt.EnableResilience(runtimelib.DefaultResilience())
	}
	if o.Async {
		rt.EnableAsync()
		mach.SetOverlapSink(rt.Ledger.RecordOverlap)
	}
	tr.end(s)

	var out bytes.Buffer
	s = tr.begin("interp.New", root, op)
	in, err := interp.New(p.Module, mach, rt, &out)
	tr.end(s)
	if err != nil {
		return res, 0, err
	}
	runNS = tr.dur(s)
	if o.Strategy == core.InspectorExecutor {
		in.Mode = interp.Inspector
	}
	in.Workers = o.Workers

	s = tr.begin("interp.Run", root, op)
	exit, err := in.Run()
	tr.end(s)
	runNS += tr.dur(s)
	if err != nil {
		return res, runNS, err
	}

	s = tr.begin("trace.Ledger", root, op)
	res = runResult{sha256Hex(out.Bytes()), exit, mach.Stats(), rt.Stats(), rt.Ledger.Ledger()}
	tr.end(s)
	return res, runNS, nil
}

func (ri *runInstance) checkDrivers() error {
	tr := newTracer()
	for c, p := range ri.progs {
		rep, err := p.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", ri.keys[c], err)
		}
		root := tr.begin("hostbench.op", -1, c)
		res, _, err := assembledRun(p, tr, root, c)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: hand-assembled run: %w", ri.keys[c], err)
		}
		want := resultOf(rep)
		if res.stats != want.stats || res.rtStats != want.rtStats || res.outputSHA256 != want.outputSHA256 {
			return fmt.Errorf("%s: the hand-assembled run no longer matches Program.Run: Stats %+v, Program.Run %+v",
				ri.keys[c], res.stats, want.stats)
		}
	}
	return nil
}

func (ri *runInstance) close() error { return nil }

func addStats(a *machine.Stats, b machine.Stats) {
	a.BytesHtoD += b.BytesHtoD
	a.BytesDtoH += b.BytesDtoH
	a.NumHtoD += b.NumHtoD
	a.NumDtoH += b.NumDtoH
	a.NumKernels += b.NumKernels
	a.CPUOps += b.CPUOps
	a.GPUOps += b.GPUOps
}

func addRTStats(a *runtimelib.Stats, b runtimelib.Stats) {
	a.Maps += b.Maps
	a.Unmaps += b.Unmaps
	a.Releases += b.Releases
	a.MapArrays += b.MapArrays
	a.HtoDCopies += b.HtoDCopies
	a.DtoHCopies += b.DtoHCopies
	a.EpochSkips += b.EpochSkips
	a.ResidencySkips += b.ResidencySkips
	a.Evictions += b.Evictions
	a.Retries += b.Retries
}

// layers reports the run workloads' share of the per-layer metrics.
// Runtime and machine calls happen inside Interp.Run, where hostbench
// cannot put a span, so their busy time is estimated: exact call and
// byte counts from Stats/RTStats times the per-call and per-byte cost
// the probes measured on a standalone Runtime and Machine (m already
// holds the probe results).
func (ri *runInstance) layers(m map[string]float64) {
	if ri.traced == 0 {
		return
	}
	n := float64(ri.traced)
	st, rt := ri.stats, ri.rt
	m["interp.sim_ops"] = float64(st.CPUOps+st.GPUOps) / n
	m["interp.launches"] = float64(st.NumKernels) / n
	if ri.seqNS > 0 {
		m["interp.cpu_root.mops_per_s"] = float64(ri.seqOps) / 1e6 / (float64(ri.seqNS) / 1e9)
	}
	if ri.optNS > 0 {
		m["interp.kernel.mops_per_s"] = float64(ri.optOps) / 1e6 / (float64(ri.optNS) / 1e9)
	}
	m["runtime.map_calls"] = float64(rt.Maps) / n
	m["runtime.unmap_calls"] = float64(rt.Unmaps) / n
	m["runtime.release_calls"] = float64(rt.Releases) / n
	m["runtime.maparray_calls"] = float64(rt.MapArrays) / n
	if rt.Unmaps > 0 {
		m["runtime.epoch_skip_ratio"] = float64(rt.EpochSkips) / float64(rt.Unmaps)
	}
	if rt.Maps > 0 {
		m["runtime.residency_skip_ratio"] = float64(rt.ResidencySkips) / float64(rt.Maps)
	}
	m["runtime.evictions"] = float64(rt.Evictions) / n
	m["runtime.retries"] = float64(rt.Retries) / n
	m["machine.copies"] = float64(st.NumHtoD+st.NumDtoH) / n
	m["machine.copied_mb"] = float64(st.BytesHtoD+st.BytesDtoH) / 1e6 / n

	// Machine: bytes over the measured copy rates, plus a device
	// allocation for every uploaded byte at the probe's cost per byte.
	perByteNS := func(gbps string) float64 {
		if m[gbps] <= 0 {
			return 0
		}
		return 1 / m[gbps]
	}
	machNS := float64(st.BytesHtoD-ri.asyncHtoD)*perByteNS("machine.copy_htod_gbps") +
		float64(st.BytesDtoH-ri.asyncDtoH)*perByteNS("machine.copy_dtoh_gbps") +
		float64(ri.asyncHtoD)*perByteNS("machine.copy_async_htod_gbps") +
		float64(ri.asyncDtoH)*perByteNS("machine.copy_async_dtoh_gbps") +
		float64(st.BytesHtoD)*m["machine.alloc_device_us"]*1e3/probeUnitBytes
	m["machine.est_busy_ms"] = machNS / 1e6 / n

	// Runtime, inclusive of the machine work its verbs call. A verb that
	// copies costs what the resident/skip verb costs plus a per-byte
	// part, taken from the probe at probeUnitBytes.
	perCopyNS := func(copyUS, skipUS string, copies, bytes int64) float64 {
		perByte := (m[copyUS] - m[skipUS]) * 1e3 / probeUnitBytes
		return float64(copies)*m[skipUS]*1e3 + float64(bytes)*perByte
	}
	rtNS := perCopyNS("runtime.map_copy_us", "runtime.map_resident_us", rt.HtoDCopies, st.BytesHtoD) +
		perCopyNS("runtime.unmap_dirty_us", "runtime.unmap_epoch_skip_us", rt.DtoHCopies, st.BytesDtoH) +
		float64(rt.ResidencySkips+rt.Releases)*m["runtime.map_resident_us"]*1e3 +
		float64(rt.EpochSkips)*m["runtime.unmap_epoch_skip_us"]*1e3
	m["runtime.est_busy_ms"] = rtNS / 1e6 / n
	m["interp.self_share_pct"] = 100 * (float64(ri.runNS) - rtNS) / float64(ri.opNS)
}
