package mappromo_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/ir"
	"cgcm/internal/passes/mappromo"
	"cgcm/internal/remarks"
)

// The differential oracle for the one-build driver: Run against
// RunReference (reference_test.go), the driver it replaced, which
// rebuilds points-to, the call graph and mod/ref before every round.
// They must agree on the module text, the remark list and the Result,
// because the claim is that nothing Run keeps across a round has gone
// stale.

// slotWrittenTwice launches on p, whose slot has two stores, so spill
// forwarding does not see through its loads. The map hoisted out of the
// t loop is a clone of such a load, and it is the first map of the o
// loop: the next round judges the clone itself, and finds no unit for it
// unless the clone has a points-to set.
const slotWrittenTwice = `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
int main() {
	int n = 64;
	float *a = (float*)malloc(64 * 8);
	float *b = (float*)malloc(64 * 8);
	float *p = a;
	if (n > 32) p = b;
	for (int o = 0; o < 3; o++) {
		for (int t = 0; t < 4; t++) {
			k<<<1, 64>>>(p, n);
		}
	}
	print_float(a[0] + b[1]);
	free(a); free(b);
	return 0;
}`

// loopThenFunction hoists the map of g + 64 out of step's loop, cloning
// the address into step's entry, and in the same round judges step's
// function region, whose first map is that clone: the clone has no
// points-to set until the round ends, as under a rebuild, so the
// function promotion waits a round. It then clones the address into
// main's loop, where the clone is again the first map.
const loopThenFunction = `
float g[256];
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = v[i] + 1.0;
}
void step(int n) {
	for (int t = 0; t < 4; t++) {
		k<<<1, 64>>>(g + 64, n);
	}
}
int main() {
	for (int r = 0; r < 3; r++) step(64);
	print_float(g[70]);
	return 0;
}`

// agree runs Run and RunReference on two builds of one module and
// reports how they differ, or "".
func agree(build func() *ir.Module, withRemarks bool) string {
	got, want := build(), build()
	var grc, wrc *remarks.Collector
	if withRemarks {
		grc, wrc = remarks.NewCollector("t.c"), remarks.NewCollector("t.c")
	}
	gres, gerr := mappromo.Run(got, grc)
	wres, werr := mappromo.RunReference(want, wrc)
	switch {
	case gerr != nil || werr != nil:
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("Run failed with %v, the reference with %v", gerr, werr)
		}
	case *gres != *wres:
		return fmt.Sprintf("Run reports %+v, the reference %+v", *gres, *wres)
	case got.String() != want.String():
		return fmt.Sprintf("modules differ.\nRun:\n%s\nreference:\n%s", got, want)
	case !reflect.DeepEqual(grc.Remarks(), wrc.Remarks()):
		var b strings.Builder
		b.WriteString("remarks differ.\nRun:\n")
		_ = remarks.Write(&b, grc.Remarks())
		b.WriteString("reference:\n")
		_ = remarks.Write(&b, wrc.Remarks())
		return b.String()
	}
	return ""
}

// beforeMapPromo compiles src under optimized CGCM up to map promotion:
// the module as the pipeline hands it to the pass.
func beforeMapPromo(t *testing.T, src string, async bool) func() *ir.Module {
	return func() *ir.Module {
		p, err := core.Compile("t.c", src, core.Options{Strategy: core.CGCMOptimized, Async: async,
			Ablate: core.PassSet{core.PassMapPromo: true, core.PassOverlap: true}})
		if err != nil {
			t.Fatal(err)
		}
		return p.Module
	}
}

func TestRunMatchesRoundRebuild(t *testing.T) {
	pipeline := map[string]string{}
	for _, p := range bench.All() {
		pipeline[p.Name] = p.Source
	}
	for _, n := range []int{1, 2, 8, 12, 13, 16} {
		pipeline[fmt.Sprintf("groups%d", n)] = bench.LoopGroups(n)
	}
	passOnly := map[string]string{
		"hoistable": hoistable, "blocked-by-read": blockedByRead, "blocked-by-write": blockedByWrite,
		"helper-call": helperCall, "recursive-walk": recursiveWalk, "nested-loops": nestedLoops,
		"interior-pointer":   interiorPointer,
		"slot-written-twice": slotWrittenTwice, "loop-then-function": loopThenFunction,
	}
	for name, src := range passOnly {
		pipeline[name] = src
	}
	for name, src := range pipeline {
		// opt, and opt with async and remarks (the overlap pass comes
		// after map promotion and is ablated like it).
		for _, async := range []bool{false, true} {
			if diff := agree(beforeMapPromo(t, src, async), async); diff != "" {
				t.Errorf("%s (async and remarks %v): %s", name, async, diff)
			}
		}
	}
	for name, src := range passOnly {
		// As the tests above prepare them: communication management only.
		for _, withRemarks := range []bool{false, true} {
			if diff := agree(func() *ir.Module { return prepare(t, src) }, withRemarks); diff != "" {
				t.Errorf("%s after commmgmt (remarks %v): %s", name, withRemarks, diff)
			}
		}
	}
}

// TestAdversarialProgramsExerciseTheClones pins what makes the two
// programs above adversarial: promotions that a clone's points-to set
// decides, and, in loop-then-function, the round its set arrives in.
// RunReference shares the rounds with Run, so a change to the rounds
// themselves shows here and not in the differential test.
func TestAdversarialProgramsExerciseTheClones(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      mappromo.Result
	}{
		{"slot-written-twice", slotWrittenTwice, mappromo.Result{Promotions: 2, LoopPromotions: 2, Iterations: 3}},
		{"loop-then-function", loopThenFunction, mappromo.Result{Promotions: 3, LoopPromotions: 2, FuncPromotions: 1, Iterations: 4}},
	} {
		res, err := mappromo.Run(prepare(t, c.src), nil)
		if err != nil {
			t.Fatal(err)
		}
		if *res != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, *res, c.want)
		}
	}
}

// TestRoundLimitIsReported: past 12 loop groups the rounds run out with
// maps still in loops, and a Missed remark says so; at 11 they do not.
func TestRoundLimitIsReported(t *testing.T) {
	for _, c := range []struct {
		groups int
		want   bool
	}{{11, false}, {16, true}} {
		p, err := core.Compile("t.c", bench.LoopGroups(c.groups), core.Options{Strategy: core.CGCMOptimized, Remarks: true})
		if err != nil {
			t.Fatal(err)
		}
		var limit []remarks.Remark
		for _, r := range p.Remarks() {
			if r.Reason == remarks.ReasonRoundLimit {
				limit = append(limit, r)
			}
		}
		if got := len(limit) > 0; got != c.want {
			t.Errorf("%d groups: round-limit remarks %v, want any: %v", c.groups, limit, c.want)
		}
		for _, r := range limit {
			if r.Pass != "mappromo" || r.Kind != remarks.Missed || r.Function != "main" || r.Unit == "" {
				t.Errorf("%d groups: malformed round-limit remark %+v", c.groups, r)
			}
		}
	}
}
