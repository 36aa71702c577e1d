package bench

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cgcm/internal/core"
	"cgcm/internal/remarks"
	"cgcm/internal/runlog"
)

// explainSample is what -short checks of explain.golden: a stencil whose
// units map promotion fixes, a program with pointer arrays, and one whose
// units stay cyclic.
var explainSample = []string{"jacobi-2d-imper", "kmeans", "nw"}

// explainViews renders every view of program p that says why an
// allocation unit moved, keyed "<view>": the ablation diff of each
// single optimization pass, sync and async; the record-to-record unit
// deltas unopt -> opt, opt -> opt-async and opt without map promotion
// -> opt; and the full remark stream of unopt and opt, sync and async.
func explainViews(t *testing.T, p Program) map[string]string {
	t.Helper()
	views := make(map[string]string)
	prevAsync := Async
	defer func() { Async = prevAsync }()
	for _, async := range []bool{false, true} {
		Async = async
		for _, pass := range []core.Pass{core.PassMapPromo, core.PassGlueKernel, core.PassAllocaPromo} {
			d, err := DiffAblation(p, nil, core.PassSet{pass: true})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			RenderAblationDiff(&sb, d)
			views[fmt.Sprintf("ablate-%s-%s", pass, syncLabel(async))] = sb.String()
		}
	}

	run := func(s core.Strategy, ablate core.PassSet, async bool) *core.Report {
		rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{
			Strategy: s, Ablate: ablate, Async: async, Remarks: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return rep
	}
	unopt, unoptAsync := run(core.CGCMUnoptimized, nil, false), run(core.CGCMUnoptimized, nil, true)
	opt, optAsync := run(core.CGCMOptimized, nil, false), run(core.CGCMOptimized, nil, true)
	noMapPromo := run(core.CGCMOptimized, core.PassSet{core.PassMapPromo: true}, false)

	for _, pair := range []struct {
		name string
		a, b *core.Report
	}{
		{"deltas-unopt-opt", unopt, opt},
		{"deltas-opt-optasync", opt, optAsync},
		{"deltas-nomappromo-opt", noMapPromo, opt},
	} {
		var sb strings.Builder
		ra := &runlog.Record{Comm: pair.a.Comm, Remarks: pair.a.Remarks}
		rb := &runlog.Record{Comm: pair.b.Comm, Remarks: pair.b.Remarks}
		runlog.RenderUnitDeltas(&sb, "A", "B", runlog.DiffLedgers(ra, rb))
		views[pair.name] = sb.String()
	}

	for name, rep := range map[string]*core.Report{
		"remarks-unopt-sync": unopt, "remarks-unopt-async": unoptAsync,
		"remarks-opt-sync": opt, "remarks-opt-async": optAsync,
	} {
		var sb strings.Builder
		if err := remarks.Write(&sb, rep.Remarks); err != nil {
			t.Fatal(err)
		}
		views[name] = sb.String()
	}
	return views
}

func syncLabel(async bool) string {
	if async {
		return "async"
	}
	return "sync"
}

// TestExplanationsGolden holds every rendering that explains an
// allocation unit — which remark promoted it, which blocks it, which hid
// its copies — to testdata/explain.golden: one sha256 per (program,
// view) over the suite, -short checks a sample. Nothing else pins these
// bytes; a change to the unit label, the cross-run join or the
// explanation rule that moves one of them fails here. Regenerate with:
//
//	go test ./internal/bench -run TestExplanationsGolden -update-golden
func TestExplanationsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "explain.golden")
	progs := All()
	if testing.Short() {
		if *updateGolden {
			t.Fatal("regenerate explain.golden without -short")
		}
		progs = nil
		for _, name := range explainSample {
			p, _ := ByName(name)
			progs = append(progs, p)
		}
	}
	var got []string
	for _, p := range progs {
		var lines []string
		for v, out := range explainViews(t, p) {
			lines = append(lines, fmt.Sprintf("%s %s %x", p.Name, v, sha256.Sum256([]byte(out))))
		}
		sort.Strings(lines)
		got = append(got, lines...)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 {
			want[fields[0]+" "+fields[1]] = fields[2]
		}
	}
	if len(want) == 0 {
		t.Fatal("explain.golden is empty")
	}
	for _, line := range got {
		fields := strings.Fields(line)
		key := fields[0] + " " + fields[1]
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no line in explain.golden", key)
		} else if w != fields[2] {
			t.Errorf("%s: rendering changed (sha256 %s, golden %s)", key, fields[2], w)
		}
	}
}
