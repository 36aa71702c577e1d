package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/trace"
)

// hotLoop is a DOALL program whose GPU work is dominated by one source
// line: the inner 200-iteration loop lives entirely on line 8 of the
// string (the leading newline is line 1).
const hotLoop = `
int main() {
	int n = 1024;
	float *a = (float*)malloc(n * sizeof(float));
	for (int i = 0; i < n; i++) { a[i] = (float)i; }
	for (int i = 0; i < n; i++) {
		float acc = a[i];
		for (int j = 0; j < 200; j++) { acc = acc * 0.5 + 1.0; }
		a[i] = acc;
	}
	float s = 0.0;
	for (int i = 0; i < n; i++) { s = s + a[i]; }
	print_float(s);
	free(a);
	return 0;
}`

const hotLine = 8

// TestProfileHotLineAttribution compiles a program with a known hot loop
// and checks the profiler pins >=90% of all simulated GPU ops on that
// source line.
func TestProfileHotLineAttribution(t *testing.T) {
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
		Strategy: core.CGCMOptimized,
		Profile:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Profile
	if p == nil {
		t.Fatal("Options.Profile set but Report.Profile is nil")
	}
	if p.TotalGPUOps != rep.Stats.GPUOps {
		t.Fatalf("profile total %d != machine GPU ops %d", p.TotalGPUOps, rep.Stats.GPUOps)
	}
	var hot int64
	for _, ls := range p.Lines {
		if ls.Line == hotLine {
			hot += ls.GPUOps
		}
	}
	if pct := float64(hot) / float64(p.TotalGPUOps); pct < 0.9 {
		t.Fatalf("hot line %d got %.1f%% of %d GPU ops, want >=90%%\nlines: %+v",
			hotLine, pct*100, p.TotalGPUOps, p.Lines)
	}
	// The hottest line must render first in both outputs.
	var flat, folded bytes.Buffer
	if err := p.WriteFlat(&flat, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flat.String(), "hot.c:8") {
		t.Fatalf("flat profile missing hot line:\n%s", flat.String())
	}
	first := strings.SplitN(folded.String(), "\n", 2)[0]
	if !strings.Contains(first, ";hot.c:8 ") {
		t.Fatalf("folded profile does not lead with the hot line: %q", first)
	}
	// Launch-site walls come from kernel spans; they must cover every
	// kernel the machine ran.
	var launches int64
	for _, s := range p.Sites {
		launches += s.Launches
	}
	if launches != rep.Stats.NumKernels {
		t.Fatalf("profiled %d launches, machine ran %d", launches, rep.Stats.NumKernels)
	}

	// The profile is read from the run's event log whoever else reads it:
	// with a tracer attached too it is byte-identical, sync and async, and
	// a profile alone renders no spans.
	for _, async := range []bool{false, true} {
		var docs [2][]byte
		for i, tr := range []*trace.Tracer{nil, trace.New()} {
			rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
				Strategy: core.CGCMOptimized, Async: async, Profile: true, Tracer: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Spans != nil) != (tr != nil) {
				t.Fatalf("async %v, tracer %v: %d spans", async, tr != nil, len(rep.Spans))
			}
			if docs[i], err = json.Marshal(rep.Profile); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Fatalf("async %v: profile-only and traced profiles differ:\n%s\n%s", async, docs[0], docs[1])
		}
	}
}

// TestProfileMatchesLedger pins the agreement guarantee: per-unit
// transfer bytes and copy counts in the profile equal the communication
// ledger's totals, because the runtime feeds both at the same points.
func TestProfileMatchesLedger(t *testing.T) {
	for _, strat := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized} {
		rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
			Strategy: strat,
			Profile:  true,
		})
		if err != nil {
			t.Fatalf("[%s] %v", strat, err)
		}
		// Fold the ledger by unit name (the profile keys transfers by
		// name, the ledger by base address).
		type totals struct{ hb, hc, db, dc int64 }
		ledger := map[string]*totals{}
		for i := range rep.Comm.Units {
			u := &rep.Comm.Units[i]
			tot := ledger[u.Name]
			if tot == nil {
				tot = &totals{}
				ledger[u.Name] = tot
			}
			tot.hb += u.BytesHtoD
			tot.hc += u.HtoDCopies
			tot.db += u.BytesDtoH
			tot.dc += u.DtoHCopies
		}
		profTot := rep.Profile.UnitTotals()
		for name, tot := range ledger {
			if tot.hb == 0 && tot.db == 0 {
				continue // unit never crossed the bus; profile has no row
			}
			pu, ok := profTot[name]
			if !ok {
				t.Fatalf("[%s] unit %q in ledger but not in profile", strat, name)
			}
			if pu.HtoDBytes != tot.hb || pu.HtoDCount != tot.hc ||
				pu.DtoHBytes != tot.db || pu.DtoHCount != tot.dc {
				t.Fatalf("[%s] unit %q: profile %+v != ledger %+v", strat, name, pu, *tot)
			}
		}
		for name := range profTot {
			if _, ok := ledger[name]; !ok {
				t.Fatalf("[%s] unit %q in profile but not in ledger", strat, name)
			}
		}
	}
}

// TestProfileRuntimeCallsTimed checks cgcm.* runtime-library calls are
// timed on the simulated clock and carry their call-site line.
func TestProfileRuntimeCallsTimed(t *testing.T) {
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{
		Strategy: core.CGCMUnoptimized,
		Profile:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.RuntimeSeconds() <= 0 {
		t.Fatal("no runtime-library time attributed")
	}
	seen := map[string]bool{}
	for _, rc := range rep.Profile.Runtime {
		seen[rc.Call] = true
		if rc.Line == 0 {
			t.Fatalf("runtime call %s has no source line", rc.Call)
		}
	}
	for _, want := range []string{"cgcm.map", "cgcm.unmap", "cgcm.release"} {
		if !seen[want] {
			t.Fatalf("runtime calls missing %s (got %v)", want, seen)
		}
	}
}

// TestProfileOffByDefault ensures profiling stays opt-in.
func TestProfileOffByDefault(t *testing.T) {
	rep, err := core.CompileAndRun("hot.c", hotLoop, core.Options{Strategy: core.CGCMOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile != nil {
		t.Fatal("Report.Profile set without Options.Profile")
	}
}
