package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	"cgcm/internal/metrics"
	"cgcm/internal/rbtree"
	"cgcm/internal/runlog"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/server"
	"cgcm/internal/trace"
)

// The probes drive one layer's public functions directly, on a standalone
// Runtime, Machine, tree or server, and report what one call costs on
// the host. They do not depend on the workload; every traced run repeats
// them so its count × cost estimates use costs measured in the same
// process on the same machine.

const (
	// probeUnitBytes is the allocation-unit size of the runtime probes.
	probeUnitBytes = 64 << 10
	// probeCopyBytes is the transfer size of the machine copy probes.
	probeCopyBytes = 256 << 10
)

// perCall returns the median, over reps batches, of a batch's time
// divided by the n calls it made, in nanoseconds.
func perCall(reps, n int, batch func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		batch()
		ts[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ts)
}

// sink keeps probe and burst results live. Loops add to a local and
// store once, so the atomic costs nothing per iteration.
var sink atomic.Uint64

func runProbes(m map[string]float64) error {
	// The calibration burst itself: it moves only when the machine does,
	// so a slower or noisier host is visible beside every other number.
	m["host.calibration_ms"] = perCall(9, 1, func() { takeBurst() }) / 1e6
	probeRBTree(m)
	probeMachine(m)
	if err := probeRuntime(m); err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	if err := probeInterp(m); err != nil {
		return fmt.Errorf("interp probe: %w", err)
	}
	if err := probeCompileScale(m); err != nil {
		return fmt.Errorf("compile-scale probe: %w", err)
	}
	if err := probeObservers(m); err != nil {
		return fmt.Errorf("observer probe: %w", err)
	}
	if err := probeServer(m); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	return nil
}

func probeRBTree(m map[string]float64) {
	const units = 10_000
	var t rbtree.Tree[int]
	for i := 0; i < units; i++ {
		t.Put(uint64(i)*64, i)
	}
	m["rbtree.greatest_lte_ns"] = perCall(5, units, func() {
		var acc uint64
		for i := 0; i < units; i++ {
			k, _, _ := t.GreatestLTE(uint64(i*7919%units)*64 + 17)
			acc += k
		}
		sink.Add(acc)
	})
	m["rbtree.put_delete_ns"] = perCall(5, units, func() {
		for i := 0; i < units; i++ {
			k := uint64(i*7919%units)*64 + 32
			t.Put(k, i)
			t.Delete(k)
		}
	}) / 2
}

func probeMachine(m map[string]float64) {
	m["machine.new_us"] = perCall(5, 1000, func() {
		var acc uint64
		for i := 0; i < 1000; i++ {
			acc += machine.New(machine.DefaultCostModel()).Gen()
		}
		sink.Add(acc)
	}) / 1e3

	mach := machine.New(machine.DefaultCostModel())
	host := mach.Alloc(machine.CPU, probeCopyBytes, "probe")
	dev := mach.Alloc(machine.GPU, probeCopyBytes, "dev:probe")
	gbps := func(copy func() error) float64 {
		ns := perCall(5, 40, func() {
			for i := 0; i < 40; i++ {
				if err := copy(); err != nil {
					panic(err) // both units exist and are probeCopyBytes long
				}
			}
		})
		return probeCopyBytes / ns
	}
	m["machine.copy_htod_gbps"] = gbps(func() error { return mach.CopyHtoD(dev, host, probeCopyBytes) })
	m["machine.copy_dtoh_gbps"] = gbps(func() error { return mach.CopyDtoH(host, dev, probeCopyBytes) })
	up, down := mach.NewStream("probe-h2d"), mach.NewStream("probe-d2h")
	m["machine.copy_async_htod_gbps"] = gbps(func() error {
		_, err := mach.CopyHtoDAsync(up, dev, host, probeCopyBytes)
		mach.SyncStreams()
		return err
	})
	m["machine.copy_async_dtoh_gbps"] = gbps(func() error {
		_, err := mach.CopyDtoHAsync(down, host, dev, probeCopyBytes)
		mach.SyncStreams()
		return err
	})

	m["machine.alloc_device_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			base, err := mach.AllocDevice(probeUnitBytes, "dev:probe")
			if err != nil {
				panic(err) // no capacity limit, no fault plan
			}
			_ = mach.Free(machine.GPU, base)
		}
	}) / 1e3

	const words = probeCopyBytes / 8
	m["machine.load_store_ns"] = perCall(5, 2*words, func() {
		var acc uint64
		for i := 0; i < words; i++ {
			addr := host + uint64(i*7919%words)*8
			_ = mach.Store(addr, 8, uint64(i))
			v, _ := mach.Load(addr, 8)
			acc += v
		}
		sink.Add(acc)
	})
}

// probeRuntime times the runtime verbs on units of probeUnitBytes: a
// Map that allocates and uploads, a Map of a resident unit, an Unmap
// that copies back, an Unmap the epoch check skips, and MapArray over an
// array of row pointers. The Releases between keep reference counts
// balanced.
func probeRuntime(m map[string]float64) error {
	const units = 32
	mach := machine.New(machine.DefaultCostModel())
	rt := runtimelib.New(mach)
	ptrs := make([]uint64, units)
	for i := range ptrs {
		ptrs[i] = rt.Malloc(probeUnitBytes)
	}
	var firstErr error
	each := func(fn func(uint64) error) func() {
		return func() {
			for _, p := range ptrs {
				if err := fn(p); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	mapFn := each(func(p uint64) error { _, err := rt.Map(p); return err })
	unmapFn := each(rt.Unmap)
	releaseFn := each(rt.Release)
	const reps = 7
	var mapCopy, mapRes, unmapDirty, unmapSkip [reps]float64
	batchNS := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0).Nanoseconds()) / units
	}
	for r := 0; r < reps; r++ {
		mapCopy[r] = batchNS(mapFn)
		mapRes[r] = batchNS(mapFn)
		rt.KernelLaunched()
		unmapDirty[r] = batchNS(unmapFn)
		unmapSkip[r] = batchNS(unmapFn)
		releaseFn()
		releaseFn()
	}
	if firstErr != nil {
		return firstErr
	}
	m["runtime.map_copy_us"] = median(mapCopy[:]) / 1e3
	m["runtime.map_resident_us"] = median(mapRes[:]) / 1e3
	m["runtime.unmap_dirty_us"] = median(unmapDirty[:]) / 1e3
	m["runtime.unmap_epoch_skip_us"] = median(unmapSkip[:]) / 1e3

	// MapArray: 64 row pointers to 128-byte rows.
	const rows = 64
	arr := rt.Malloc(rows * 8)
	for i := 0; i < rows; i++ {
		if err := mach.Store(arr+uint64(i*8), 8, rt.Malloc(128)); err != nil {
			return err
		}
	}
	var mapArr [reps]float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		_, err := rt.MapArray(arr)
		mapArr[r] = float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		if err := rt.ReleaseArray(arr); err != nil {
			return err
		}
	}
	m["runtime.maparray_us"] = median(mapArr[:]) / 1e3

	// Lookup of an interior pointer among 10 k live units.
	const live = 10_000
	bases := make([]uint64, live)
	for i := range bases {
		bases[i] = rt.Malloc(64)
	}
	m["runtime.lookup_ns"] = perCall(5, live, func() {
		var acc uint64
		for i := 0; i < live; i++ {
			if info := rt.Lookup(bases[i*7919%live] + 24); info != nil {
				acc += info.Base
			}
		}
		sink.Add(acc)
	})
	return nil
}

// launchProgram launches an empty kernel 1000 times: nothing crosses
// the bus and no thread does work, so a run costs what launching costs.
const launchProgram = `
__global__ void nop(int n) { }
int main() {
	for (int t = 0; t < 1000; t++) nop<<<1, 1>>>(t);
	print_int(1);
	return 0;
}`

func probeInterp(m map[string]float64) error {
	p, err := compileKey(goldenKey("tiny0", "opt"))
	if err != nil {
		return err
	}
	var newErr error
	m["interp.new_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			mach := machine.New(machine.DefaultCostModel())
			if _, err := interp.New(p.Module, mach, runtimelib.New(mach), io.Discard); err != nil {
				newErr = err
			}
		}
	}) / 1e3
	if newErr != nil {
		return newErr
	}
	// A whole run of the same three-loop program: what a warm request
	// pays below the server, lowering included.
	m["interp.tiny_run_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			if _, err := p.Run(); err != nil {
				newErr = err
			}
		}
	}) / 1e3
	if newErr != nil {
		return newErr
	}

	lp, err := core.Compile("launch.c", launchProgram, core.Options{
		Strategy: core.CGCMUnoptimized, Workers: 1, Ablate: core.PassSet{core.PassDOALL: true},
	})
	if err != nil {
		return err
	}
	var runErr error
	m["interp.launch_us"] = perCall(5, 1000, func() {
		rep, err := lp.Run()
		if err != nil {
			runErr = err
		} else if rep.Stats.NumKernels != 1000 {
			runErr = fmt.Errorf("launch probe ran %d kernels, want 1000", rep.Stats.NumKernels)
		}
	}) / 1e3
	return runErr
}

// probeCompileScale fits the log-log slope of compile time over the
// smallest and largest generated program; 1.0 is linear.
func probeCompileScale(m map[string]float64) error {
	first, last := genSizes[0], genSizes[len(genSizes)-1]
	times := map[string]float64{}
	for _, prog := range []string{first, last} {
		var err error
		times[prog] = perCall(3, 1, func() {
			if _, cerr := compileKey(goldenKey(prog, "opt")); cerr != nil {
				err = cerr
			}
		})
		if err != nil {
			return err
		}
	}
	n0, _ := numbered(first, "gen")
	n1, _ := numbered(last, "gen")
	m["core.compile_scale_exponent"] = math.Log(times[last]/times[first]) / math.Log(float64(n1)/float64(n0))
	return nil
}

// probeObservers measures what each observer costs when switched on:
// the fastest of five runs with one observer over the fastest bare run,
// minus one, on hotspot (cgcm-optimized) and nw (cgcm-unoptimized),
// averaged. The fastest run, not the median: run times of the
// allocation-heavy nw vary by 20% with where collections land, which
// would swamp a 5% overhead in a median of five. The
// gated workloads all run bare; this is the matrix a later change to
// the accounting paths must not make worse.
func probeObservers(m map[string]float64) error {
	dir, err := os.MkdirTemp(".", ".hostbench-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := runlog.Open(dir)
	if err != nil {
		return err
	}

	observers := []struct {
		name string
		set  func(*core.Options)
	}{
		{"bare", func(*core.Options) {}},
		{"tracer", func(o *core.Options) { o.Tracer = trace.New() }},
		{"profile", func(o *core.Options) { o.Profile = true }},
		{"metrics", func(o *core.Options) { o.Metrics = metrics.New() }},
		{"remarks", func(o *core.Options) { o.Remarks = true }},
		{"racecheck", func(o *core.Options) { o.RaceCheck = true }},
		{"runlog", func(*core.Options) {}},
	}
	const reps = 5
	overhead := make([]float64, len(observers))
	var traced *core.Report
	var tracedTracer *trace.Tracer
	for _, key := range []string{goldenKey("hotspot", "opt"), goldenKey("nw", "unopt")} {
		program, config := splitKey(key)
		src, err := source(program)
		if err != nil {
			return err
		}
		progs := make([]*core.Program, len(observers))
		for i, ob := range observers {
			opts, err := configOptions(config)
			if err != nil {
				return err
			}
			ob.set(&opts)
			if progs[i], err = core.Compile(program, src, opts); err != nil {
				return err
			}
		}
		times := make([][]float64, len(observers))
		for r := 0; r < reps; r++ {
			for i, ob := range observers {
				t0 := time.Now()
				rep, err := progs[i].Run()
				if err == nil && ob.name == "runlog" {
					_, err = store.Append(cli.NewRunRecord(program, progs[i].Opts, rep, time.Since(t0).Nanoseconds()))
				}
				times[i] = append(times[i], float64(time.Since(t0).Nanoseconds()))
				if err != nil {
					return fmt.Errorf("%s with %s: %w", key, ob.name, err)
				}
				if ob.name == "tracer" && program == "hotspot" {
					traced, tracedTracer = rep, progs[i].Opts.Tracer
				}
			}
		}
		bare := slices.Min(times[0])
		for i := range observers {
			overhead[i] += 100 * (slices.Min(times[i])/bare - 1) / 2
		}
	}
	for i, ob := range observers[1:] {
		m["observer."+ob.name+".overhead_pct"] = overhead[i+1]
	}

	// The trace consumers, on the spans of the traced hotspot run.
	m["trace.merge_us"] = perCall(5, 1, func() { trace.New().Merge(tracedTracer) }) / 1e3
	var werr error
	m["trace.write_chrome_ms"] = perCall(3, 1, func() {
		var buf bytes.Buffer
		if err := trace.WriteChromeSpans(&buf, traced.Spans, traced.Phases); err != nil {
			werr = err
		}
	}) / 1e6
	if werr != nil {
		return werr
	}
	m["critpath.analyze_ms"] = perCall(3, 1, func() {
		if _, err := critpath.Analyze(traced.Spans, traced.Stats.Wall); err != nil {
			werr = err
		}
	}) / 1e6
	if werr != nil {
		return werr
	}
	rec := cli.NewRunRecord("hotspot", core.Options{Strategy: core.CGCMOptimized}, traced, 0)
	m["runlog.append_ms"] = perCall(5, 1, func() {
		if _, err := store.Append(rec); err != nil {
			werr = err
		}
	}) / 1e6
	return werr
}

// probeServer times the request path's fixed costs on a private server
// with tiny0 in its compile cache.
func probeServer(m map[string]float64) error {
	src, err := source("tiny0")
	if err != nil {
		return err
	}
	body, err := json.Marshal(server.RunRequest{Tenant: "probe", Program: "tiny0", Source: src, Options: server.RunOptions{Workers: 1}})
	if err != nil {
		return err
	}
	var derr *server.Error
	m["server.decode_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			if _, e := server.DecodeRequest(body, 0); e != nil {
				derr = e
			}
		}
	}) / 1e3
	if derr != nil {
		return derr
	}

	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Shutdown(context.Background()) }()
	req, e := server.DecodeRequest(body, 0)
	if e != nil {
		return e
	}
	var resp *server.RunResponse
	submit := func() {
		r, serr, _ := srv.Submit(context.Background(), req)
		if serr != nil {
			derr = serr
		}
		resp = r
	}
	submit() // compiles tiny0
	if derr != nil {
		return derr
	}
	m["server.submit_warm_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			submit()
		}
	}) / 1e3
	if derr != nil {
		return derr
	}
	var merr error
	m["server.encode_us"] = perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				merr = err
			}
		}
	}) / 1e3
	if merr != nil {
		return merr
	}

	// The same warm request over HTTP; what it costs beyond Submit is
	// the handler, the loopback connection and the client.
	hs, url, err := listen(srv)
	if err != nil {
		return err
	}
	client := &http.Client{}
	defer func() {
		client.CloseIdleConnections()
		_ = hs.Close()
	}()
	viaHTTP := perCall(5, 200, func() {
		for i := 0; i < 200; i++ {
			r, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				merr = err
				continue
			}
			if _, err := io.Copy(io.Discard, r.Body); err != nil {
				merr = err
			}
			_ = r.Body.Close()
		}
	}) / 1e3
	m["server.http_overhead_us"] = viaHTTP - m["server.submit_warm_us"]
	return merr
}
