package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/remarks"
)

var update = flag.Bool("update", false, "rewrite testdata/irhash.golden")

// TestIRHashGolden holds what the compiler does to the suite: for every
// program, strategy and async setting, one line in testdata/irhash.golden
// with a hash of the module after irbuild and after every pass that ran,
// and one of the compile remark list. A change that moves a pass's output
// on any suite program, or any remark, fails here with both lines, so
// the first differing hash names the phase; one that should move them
// says so by regenerating:
//
//	go test ./internal/core -run TestIRHashGolden -update
func TestIRHashGolden(t *testing.T) {
	short := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
	var got []string
	for _, p := range bench.All() {
		for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
			for _, async := range []bool{false, true} {
				var dump strings.Builder
				prog, err := core.Compile(p.Name, p.Source, core.Options{Strategy: s, Async: async, Remarks: true, DumpWriter: &dump})
				if err != nil {
					t.Fatalf("%s [%s async=%v]: %v", p.Name, s, async, err)
				}
				line := fmt.Sprintf("%s %s async=%v", p.Name, s, async)
				for _, phase := range strings.Split(dump.String(), "=== after ")[1:] {
					name, mod, _ := strings.Cut(phase, " ===\n")
					line += fmt.Sprintf(" %s=%s", name, short(mod))
				}
				var rs strings.Builder
				if err := remarks.Write(&rs, prog.Remarks()); err != nil {
					t.Fatal(err)
				}
				got = append(got, line+" remarks="+short(rs.String()))
			}
		}
	}
	golden := filepath.Join("testdata", "irhash.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("irhash.golden has %d lines, the suite compiles to %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("the compile changed:\ngot  %s\nwant %s", got[i], want[i])
		}
	}
}
