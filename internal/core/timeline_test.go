package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/interp"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// timelineBlock is how many events one localizing hash of a golden row
// covers.
const timelineBlock = 64

// timelineConfigs are the runs the timeline golden covers: the critical-path
// retime sweep's configurations, plus the optimized strategy under a plan
// that fails only kernel launches.
func timelineConfigs(t *testing.T) map[string]core.Options {
	spec := func(s string) *faultinject.Spec {
		f, err := faultinject.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	std, launch := spec("seed=7,htod=0.2,dtoh=0.2,alloc=0.1"), spec("seed=3,launch=0.3")
	return map[string]core.Options{
		"unopt":                {Strategy: core.CGCMUnoptimized},
		"unopt-async":          {Strategy: core.CGCMUnoptimized, Async: true},
		"opt":                  {Strategy: core.CGCMOptimized},
		"opt-async":            {Strategy: core.CGCMOptimized, Async: true},
		"opt-16k-faults":       {Strategy: core.CGCMOptimized, GPUMemBytes: 16384, FaultSpec: std},
		"opt-async-16k-faults": {Strategy: core.CGCMOptimized, Async: true, GPUMemBytes: 16384, FaultSpec: std},
		"inspector":            {Strategy: core.InspectorExecutor},
		"opt-launch-faults":    {Strategy: core.CGCMOptimized, FaultSpec: launch},
	}
}

// rawTimeline runs p the way Program.RunWith assembles a run, with the
// machine keeping its record, and returns the machine's verb list and raw
// event log.
func rawTimeline(p *core.Program) ([]machine.Verb, []trace.Event, error) {
	o := p.Opts
	mach := machine.New(o.CostModel())
	mach.KeepLog()
	if o.GPUMemBytes > 0 {
		mach.SetGPUCapacity(o.GPUMemBytes)
	}
	if o.FaultSpec != nil && !o.FaultSpec.Empty() {
		mach.SetFaultPlan(o.FaultSpec.NewPlan())
	}
	rt := runtimelib.New(mach)
	if o.GPUMemBytes > 0 || mach.FaultPlan() != nil {
		rt.EnableResilience(runtimelib.DefaultResilience())
	}
	if o.Async {
		rt.EnableAsync()
	}
	in, err := interp.New(p.Module, mach, rt, io.Discard)
	if err != nil {
		return nil, nil, err
	}
	if o.Strategy == core.InspectorExecutor {
		in.Mode = interp.Inspector
	}
	in.Workers = 1
	if _, err := in.Run(); err != nil {
		return nil, nil, err
	}
	return mach.Verbs(), mach.Log(), nil
}

// writeFields writes every exported field of the struct v, floats by their
// bits, so two values print alike exactly when their exported fields are
// equal.
func writeFields(w io.Writer, v reflect.Value) {
	ty := v.Type()
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.IsExported() {
			fmt.Fprintf(w, " %s=", f.Name)
			if x := v.Field(i); x.Kind() == reflect.Float64 {
				fmt.Fprintf(w, "%#x", math.Float64bits(x.Float()))
			} else {
				fmt.Fprintf(w, "%v", x.Interface())
			}
		}
	}
	fmt.Fprintln(w)
}

// timelineRow is one golden line: the run's name, the sha256 of its verb
// list and of its event log, the event count, and one short hash per
// timelineBlock events, which locates the first block that changed.
func timelineRow(name string, verbs []machine.Verb, log []trace.Event) string {
	vh := sha256.New()
	for i := range verbs {
		writeFields(vh, reflect.ValueOf(verbs[i]))
	}
	lh := sha256.New()
	var blocks []string
	var bh hash.Hash
	for i := range log {
		if i%timelineBlock == 0 {
			if bh != nil {
				blocks = append(blocks, fmt.Sprintf("%x", bh.Sum(nil)[:4]))
			}
			bh = sha256.New()
		}
		writeFields(io.MultiWriter(lh, bh), reflect.ValueOf(log[i]))
	}
	if bh != nil {
		blocks = append(blocks, fmt.Sprintf("%x", bh.Sum(nil)[:4]))
	}
	return fmt.Sprintf("%s verbs=%x log=%x events=%d blocks=%s",
		name, vh.Sum(nil), lh.Sum(nil), len(log), strings.Join(blocks, ","))
}

// TestTimelineGolden holds a traced run's record bit for bit: for every
// suite program under every configuration of timelineConfigs, one line in
// testdata/timeline.golden with a hash of the verb list and of the raw
// event log (every field, floats by their bits). A change to when, in what
// order or with which fields anything is booked fails here, and the first
// differing row prints the events of its first block of timelineBlock
// events that differs; one that should move them says so by regenerating:
//
//	go test ./internal/core -run TestTimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	configs := timelineConfigs(t)
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	run := func(p bench.Program, cname string) ([]machine.Verb, []trace.Event) {
		prog, err := core.Compile(p.Name, p.Source, configs[cname])
		if err != nil {
			t.Fatalf("%s %s: %v", p.Name, cname, err)
		}
		verbs, log, err := rawTimeline(prog)
		if err != nil {
			t.Fatalf("%s %s: %v", p.Name, cname, err)
		}
		return verbs, log
	}
	var got []string
	var progs []bench.Program // the program of each row
	for _, p := range bench.All() {
		for _, cname := range names {
			verbs, log := run(p, cname)
			got = append(got, timelineRow(p.Name+" "+cname, verbs, log))
			progs = append(progs, p)
		}
	}
	golden := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("timeline.golden has %d lines, the suite runs %d (regenerate with -update)", len(want), len(got))
	}
	dumped := false
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		gf, wf := strings.Fields(got[i]), strings.Fields(want[i])
		key := gf[0] + " " + gf[1]
		msg := fmt.Sprintf("%s: the record changed:\ngot  %s\nwant %s", key, strings.Join(gf[2:5], " "), strings.Join(wf[2:5], " "))
		gb := strings.Split(strings.TrimPrefix(gf[len(gf)-1], "blocks="), ",")
		wb := strings.Split(strings.TrimPrefix(wf[len(wf)-1], "blocks="), ",")
		for b := 0; b < len(gb) && !dumped; b++ {
			if b < len(wb) && gb[b] == wb[b] {
				continue
			}
			_, log := run(progs[i], gf[1])
			var evs bytes.Buffer
			for j := b * timelineBlock; j < min(len(log), (b+1)*timelineBlock); j++ {
				fmt.Fprintf(&evs, "%d:", j)
				writeFields(&evs, reflect.ValueOf(log[j]))
			}
			msg += fmt.Sprintf("\nthe first differing event is among events [%d, %d), which now read:\n%s",
				b*timelineBlock, (b+1)*timelineBlock, evs.String())
			dumped = true
		}
		t.Error(msg)
	}
}
