package critpath_test

import (
	"fmt"
	"math"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/faultinject"
	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// tile asserts the invariant the whole package exists for: the path
// tiles [0, wall] with exact boundary equality and the durations sum to
// the wall (up to float accumulation in the sum itself).
func tile(t *testing.T, a *critpath.Analysis) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, seg := range a.Path {
		s += seg.End - seg.Start
	}
	if math.Abs(s-a.Wall) > 1e-9*a.Wall {
		t.Fatalf("path sum %g != wall %g", s, a.Wall)
	}
}

// TestSyntheticSyncSchedule hand-builds the canonical cyclic schedule —
// CPU work, upload, kernel, stall, download — and checks every segment
// lands where the construction says it must.
func TestSyntheticSyncSchedule(t *testing.T) {
	spans := []trace.Span{
		{Kind: trace.KindCPU, Lane: trace.LaneCPU, Start: 0, End: 10},
		{Kind: trace.KindHtoD, Lane: trace.LaneXfer, Start: 12, End: 20}, // 10..12 untraced enqueue
		{Kind: trace.KindKernel, Lane: trace.LaneGPU, Name: "k", Start: 20, End: 50},
		{Kind: trace.KindStall, Lane: trace.LaneCPU, Name: "sync", Start: 20, End: 50},
		{Kind: trace.KindDtoH, Lane: trace.LaneXfer, Start: 50, End: 58},
		{Kind: trace.KindCPU, Lane: trace.LaneCPU, Start: 58, End: 60},
	}
	a, err := critpath.Analyze(spans, 60)
	if err != nil {
		t.Fatal(err)
	}
	tile(t, a)
	if len(a.Path) != 6 {
		t.Fatalf("got %d segments, want 6: %+v", len(a.Path), a.Path)
	}
	wantClass := []critpath.Class{
		critpath.ClassCPU, critpath.ClassOverhead, critpath.ClassComm,
		critpath.ClassGPU, critpath.ClassComm, critpath.ClassCPU,
	}
	for i, w := range wantClass {
		if a.Path[i].Class != w {
			t.Errorf("segment %d class = %v, want %v", i, a.Path[i].Class, w)
		}
	}
	// The stall must not be on the path: the kernel explains 20..50.
	if a.ByClass[critpath.ClassStall] != 0 {
		t.Errorf("stall credited %g on path; kernel should win", a.ByClass[critpath.ClassStall])
	}
	if a.ByClass[critpath.ClassGPU] != 30 {
		t.Errorf("GPU on path = %g, want 30", a.ByClass[critpath.ClassGPU])
	}
	if a.Limiting != "GPU" {
		t.Errorf("limiting = %q, want GPU", a.Limiting)
	}
}

// cyclicScript drives the canonical cyclic schedule on a machine under
// cost — CPU work, upload, kernel, download (which waits for the kernel),
// CPU work — with its verbs kept. On streams, the upload is a prefetch the
// kernel waits for and the download a flush the host then touches.
func cyclicScript(t *testing.T, cost machine.CostModel, async bool) *machine.Machine {
	t.Helper()
	m := machine.New(cost)
	m.KeepLog()
	const n = 4096
	host, dev := m.Alloc(machine.CPU, n, "a"), m.Alloc(machine.GPU, n, "dev:a")
	var up, down *machine.Stream
	if async {
		up, down = m.NewStream("h2d"), m.NewStream("d2h")
	}
	m.CPUOps(1000)
	ev, err := m.CopyHtoDAsync(up, dev, host, n)
	if err != nil {
		t.Fatal(err)
	}
	if async {
		m.LaunchKernelAt("k", 1, 100_000, 1000, ev)
	} else {
		m.LaunchKernelAt("k", 1, 100_000, 1000)
	}
	if _, err := m.CopyDtoHAsync(down, host, dev, n); err != nil {
		t.Fatal(err)
	}
	m.CPUOps(100)
	m.WaitHostUnit(host)
	m.CPUOps(100)
	m.Sync()
	return m
}

// TestZeroCommRetimesTheVerbs: zero-comm predicts exactly the wall of the
// same calls on a machine whose transfers are free — the two copies gone,
// the download's wait for the kernel kept — and identity the measured
// wall.
func TestZeroCommRetimesTheVerbs(t *testing.T) {
	def := machine.DefaultCostModel()
	for _, async := range []bool{false, true} {
		m := cyclicScript(t, def, async)
		measured := m.Stats().Wall
		if id := critpath.WhatIf(m.Verbs(), def, critpath.ScenarioIdentity); id.Wall != measured || id.Speedup != 1 {
			t.Errorf("async=%v: identity %+v, measured wall %g", async, id, measured)
		}
		p := critpath.WhatIf(m.Verbs(), def, critpath.ScenarioZeroComm)
		free := cyclicScript(t, critpath.ScenarioZeroComm.Cost(def), async).Stats()
		if p.Wall != free.Wall || free.CommTime != 0 {
			t.Errorf("async=%v: zero-comm predicted %g, a free-transfer machine measures %g (comm %g)", async, p.Wall, free.Wall, free.CommTime)
		}
		if p.Wall >= measured || p.Speedup != measured/p.Wall {
			t.Errorf("async=%v: zero-comm %+v against measured %g", async, p, measured)
		}
	}
}

// TestPerfectOverlapRewrite: perfect-overlap retimes the verbs with every
// copy on one new stream and nothing but the final sync waiting for a
// copy — exactly the wall of a machine driven that way.
func TestPerfectOverlapRewrite(t *testing.T) {
	def := machine.DefaultCostModel()
	for _, async := range []bool{false, true} {
		m := cyclicScript(t, def, async)
		dedicated := 1 // Verb.Stream: 1 + the index of the first stream the run did not use
		if async {
			dedicated = 3
		}
		verbs := critpath.ScenarioPerfectOverlap.Verbs(m.Verbs())
		for _, v := range verbs {
			switch v.Kind {
			case machine.VerbHtoD, machine.VerbDtoH:
				if v.Stream != dedicated {
					t.Errorf("async=%v: copy on stream %d, want the dedicated stream %d", async, v.Stream, dedicated)
				}
			case machine.VerbKernel:
				if len(v.Waits) != 0 {
					t.Errorf("async=%v: kernel still waits on %v", async, v.Waits)
				}
			case machine.VerbTouch, machine.VerbFree:
				t.Errorf("async=%v: rewrite kept a %v verb", async, v.Kind)
			}
		}
		// The same program on a machine whose copies all go on a third
		// stream that no launch or host access waits for.
		o := machine.New(def)
		const n = 4096
		host, dev := o.Alloc(machine.CPU, n, "a"), o.Alloc(machine.GPU, n, "dev:a")
		o.NewStream("h2d")
		o.NewStream("d2h")
		dma := o.NewStream("dma")
		o.CPUOps(1000)
		o.CopyHtoDAsync(dma, dev, host, n)
		o.LaunchKernelAt("k", 1, 100_000, 1000)
		o.CopyDtoHAsync(dma, host, dev, n)
		o.CPUOps(200)
		o.Sync()
		p := critpath.WhatIf(m.Verbs(), def, critpath.ScenarioPerfectOverlap)
		if want := o.Stats().Wall; p.Wall != want {
			t.Errorf("async=%v: perfect-overlap predicted %g, the rewritten machine measures %g", async, p.Wall, want)
		}
		if p.Wall > m.Stats().Wall {
			t.Errorf("async=%v: perfect-overlap predicted %g above the measured %g", async, p.Wall, m.Stats().Wall)
		}
	}
}

// TestSyntheticAsyncOverlap checks stream copies: a copy overlapping a
// kernel must stay off the critical path, and queueing delay must be
// measured from the issue instant via the flow link.
func TestSyntheticAsyncOverlap(t *testing.T) {
	lane := trace.LaneStreamBase
	spans := []trace.Span{
		{Kind: trace.KindCPU, Lane: trace.LaneCPU, Start: 0, End: 10},
		{Kind: trace.KindIssue, Lane: trace.LaneCPU, Start: 10, End: 10, Flow: 1},
		{Kind: trace.KindHtoD, Lane: lane, Start: 12, End: 30, Flow: 1, Bytes: 1024},
		{Kind: trace.KindKernel, Lane: trace.LaneGPU, Name: "k", Start: 30, End: 80},
		{Kind: trace.KindCPU, Lane: trace.LaneCPU, Start: 10, End: 40},
		{Kind: trace.KindStall, Lane: trace.LaneCPU, Name: "sync", Start: 40, End: 80},
		{Kind: trace.KindCPU, Lane: trace.LaneCPU, Start: 80, End: 85},
	}
	a, err := critpath.Analyze(spans, 85)
	if err != nil {
		t.Fatal(err)
	}
	tile(t, a)
	// Path: cpu 0..10, overhead 10..12, copy 12..30, kernel 30..80, cpu 80..85.
	if a.ByClass[critpath.ClassGPU] != 50 {
		t.Errorf("GPU on path = %g, want 50", a.ByClass[critpath.ClassGPU])
	}
	if a.ByClass[critpath.ClassComm] != 18 {
		t.Errorf("Comm on path = %g, want 18 (the copy gates the kernel)", a.ByClass[critpath.ClassComm])
	}
	if len(a.Queues) != 1 || a.Queues[0].Copies != 1 {
		t.Fatalf("queues = %+v", a.Queues)
	}
	if a.Queues[0].Max != 2 {
		t.Errorf("queueing delay = %g, want 2 (issue at 10, DMA at 12)", a.Queues[0].Max)
	}
	if a.Overlap.Hidden <= 0 {
		t.Errorf("overlap hidden = %g, want > 0 (copy 12..30 under cpu 10..40)", a.Overlap.Hidden)
	}
}

// liveSample is a representative sample of the suite: one Comm.-limited
// program, one GPU-heavy, one with eviction pressure.
var liveSample = []string{"atax", "jacobi-2d-imper", "gramschmidt"}

// livePrograms names the inputs of the live-trace tests: the whole bench
// suite, or under -short the sample.
func livePrograms() []string {
	if testing.Short() {
		return liveSample
	}
	var names []string
	for _, p := range bench.All() {
		names = append(names, p.Name)
	}
	return names
}

// sweepPrograms names the inputs of the sweeps that re-run every
// program under several configurations: livePrograms, or the sample
// under the race detector.
func sweepPrograms() []string {
	if raceEnabled {
		return liveSample
	}
	return livePrograms()
}

func analyzeLive(t *testing.T, name string, opts core.Options) (*critpath.Analysis, *core.Report) {
	t.Helper()
	p, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("program %s missing", name)
	}
	tr := trace.New()
	opts.Tracer = tr
	rep, err := core.CompileAndRun(p.Name, p.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := critpath.Analyze(rep.Spans, rep.Stats.Wall)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a, rep
}

// TestLiveInvariant runs real programs sync and async and asserts the
// tiling invariant, that no prediction exceeds the measured wall, and
// that the identity retime is the measured wall.
func TestLiveInvariant(t *testing.T) {
	for _, name := range livePrograms() {
		for _, async := range []bool{false, true} {
			a, rep := analyzeLive(t, name, core.Options{Strategy: core.CGCMOptimized, Async: async})
			tile(t, a)
			cost := machine.DefaultCostModel()
			for _, p := range critpath.WhatIfAll(rep.Verbs, cost) {
				if p.Wall > rep.Stats.Wall {
					t.Errorf("%s async=%v: %s predicted %g > measured %g",
						name, async, p.Scenario, p.Wall, rep.Stats.Wall)
				}
				if p.Wall <= 0 {
					t.Errorf("%s async=%v: %s predicted %g", name, async, p.Scenario, p.Wall)
				}
			}
			// The identity retime is the measured wall, bit for bit.
			if id := critpath.WhatIf(rep.Verbs, cost, critpath.ScenarioIdentity); id.Wall != rep.Stats.Wall {
				t.Errorf("%s async=%v: identity retime %g, measured %g",
					name, async, id.Wall, rep.Stats.Wall)
			}
		}
	}
}

// TestCPUSpansAreCPUWork: on every traced run, a CPU span lasts exactly
// the cost of the ops it names (rounding of the clock's running sum
// apart), so no other charge — a device allocation, say — hides inside
// one, and the critical path's CPU class is no more than Stats.CPUTime.
func TestCPUSpansAreCPUWork(t *testing.T) {
	cost := machine.DefaultCostModel()
	for _, name := range sweepPrograms() {
		for _, strategy := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized, core.InspectorExecutor} {
			for _, async := range []bool{false, true} {
				if async && strategy == core.InspectorExecutor {
					continue // the inspector maps nothing, so it has no async schedule
				}
				a, rep := analyzeLive(t, name, core.Options{Strategy: strategy, Async: async})
				label := fmt.Sprintf("%s %v async=%v", name, strategy, async)
				bad := 0
				for _, s := range rep.Spans {
					if s.Kind != trace.KindCPU {
						continue
					}
					var n int64
					want := 0.0
					if _, err := fmt.Sscanf(s.Name, "inspect %d", &n); err == nil {
						want = float64(n) * cost.InspectorPerOp
					} else if _, err := fmt.Sscanf(s.Name, "%d ops", &n); err == nil {
						want = float64(n) * cost.CPUOp
					} else {
						t.Fatalf("%s: CPU span %q names no ops", label, s.Name)
					}
					if got := s.End - s.Start; math.Abs(got-want) > 1e-6*want {
						if bad++; bad <= 3 {
							t.Errorf("%s: CPU span %q at %gus lasts %gus, its ops cost %gus",
								label, s.Name, s.Start*1e6, got*1e6, want*1e6)
						}
					}
				}
				if bad > 3 {
					t.Errorf("%s: %d CPU spans last longer or shorter than their ops", label, bad)
				}
				if cpu := a.ByClass[critpath.ClassCPU]; cpu > rep.Stats.CPUTime*(1+1e-9) {
					t.Errorf("%s: critical path credits CPU with %gus, Stats.CPUTime is %gus",
						label, cpu*1e6, rep.Stats.CPUTime*1e6)
				}
			}
		}
	}
}

// TestLiveDeterminism asserts the path, limiting factor, and what-if
// predictions are bit-identical across engine worker counts: sync and
// async on every program, and under a fault schedule on a small device
// on the sample.
func TestLiveDeterminism(t *testing.T) {
	for _, name := range livePrograms() {
		for _, async := range []bool{false, true} {
			sameAcrossWorkers(t, name, core.Options{Strategy: core.CGCMOptimized, Async: async})
		}
	}
	spec, err := faultinject.ParseSpec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range liveSample {
		sameAcrossWorkers(t, name, core.Options{Strategy: core.CGCMOptimized, Async: true, FaultSpec: spec, GPUMemBytes: 262144})
	}
}

// sameAcrossWorkers runs the program under opts with 1 and 4 engine
// workers and requires the two analyses to be bit-identical.
func sameAcrossWorkers(t *testing.T, name string, opts core.Options) {
	t.Helper()
	label := fmt.Sprintf("%s async=%v faulty=%v", name, opts.Async, opts.FaultSpec != nil)
	opts.Workers = 1
	base, baseRep := analyzeLive(t, name, opts)
	tile(t, base)
	opts.Workers = 4
	a, rep := analyzeLive(t, name, opts)
	tile(t, a)
	if a.Wall != base.Wall {
		t.Fatalf("%s: wall differs across workers: %g vs %g", label, a.Wall, base.Wall)
	}
	if a.Limiting != base.Limiting {
		t.Errorf("%s: limiting differs across workers: %s vs %s", label, a.Limiting, base.Limiting)
	}
	if len(a.Path) != len(base.Path) {
		t.Fatalf("%s: path length differs: %d vs %d", label, len(a.Path), len(base.Path))
	}
	for i := range a.Path {
		if a.Path[i] != base.Path[i] {
			t.Fatalf("%s: path segment %d differs: %+v vs %+v", label, i, a.Path[i], base.Path[i])
		}
	}
	cost := machine.DefaultCostModel()
	basePred := critpath.WhatIfAll(baseRep.Verbs, cost)
	for i, p := range critpath.WhatIfAll(rep.Verbs, cost) {
		if p != basePred[i] {
			t.Errorf("%s: prediction %s differs: %+v vs %+v", label, p.Scenario, p, basePred[i])
		}
	}
}

// TestDiffAgreesWithLedger checks the acceptance criterion: sync-vs-
// async attribution on the Comm.-limited programs must agree with the
// ledger's overlapped-bytes column. Overlap does not shorten the copies
// themselves — they still gate the kernels, so communication's on-path
// time is unchanged — it hides host overhead behind them: mostly device
// allocations and kernel enqueues, barely any CPU compute. Agreement
// therefore means: the overhead and CPU time that left the critical
// path, the span-derived hidden communication time (copy time under CPU
// work, CPU overhead or kernels), and the ledger's overlapped bytes
// converted at the link's per-byte cost all describe the same quantity.
func TestDiffAgreesWithLedger(t *testing.T) {
	perByte := machine.DefaultCostModel().TransferPerB
	for _, name := range bench.CommLimited {
		syncA, _ := analyzeLive(t, name, core.Options{Strategy: core.CGCMOptimized})
		asyncA, asyncRep := analyzeLive(t, name, core.Options{Strategy: core.CGCMOptimized, Async: true})
		tile(t, syncA)
		tile(t, asyncA)
		d := critpath.Diff(syncA, asyncA)
		ledgerBytes := asyncRep.Comm.OverlappedBytes()
		if ledgerBytes <= 0 {
			t.Fatalf("%s: ledger credits no overlapped bytes", name)
		}
		if d.Delta >= 0 {
			t.Errorf("%s: async did not reduce the wall (%+g)", name, d.Delta)
		}
		// The sync run must be Comm.-limited (the suite's CommLimited
		// list), and overlap must not have changed what is on the path
		// for GPU and communication — the win is hidden host work.
		if syncA.Limiting != "Comm." {
			t.Errorf("%s: sync limiting = %s, want Comm.", name, syncA.Limiting)
		}
		for _, c := range d.Classes {
			if c.Class == critpath.ClassComm && math.Abs(c.Delta) > 1e-6*syncA.Wall {
				t.Errorf("%s: comm on-path changed by %g; copies should still gate kernels", name, c.Delta)
			}
		}
		within := func(what string, got, want float64) {
			if want <= 0 || math.Abs(got-want) > 0.35*want {
				t.Errorf("%s: %s = %gus, want about %gus", name, what, got*1e6, want*1e6)
			}
		}
		// Wall reduction ~ hidden communication time ~ ledger bytes at
		// link cost. Latency hiding makes these approximate, not exact.
		within("wall reduction vs span-derived hidden time", -d.Delta, asyncA.Overlap.Hidden)
		within("span-derived hidden time vs ledger bytes", asyncA.Overlap.Hidden, float64(ledgerBytes)*perByte)
	}
}
