package prof

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunLayersDoNotImportProf: the machine, the runtime library and the
// interpreter book events into the run's log; they do not know who reads
// it. A profile is folded from the log after the run, so none of their
// non-test files may import this package.
func TestRunLayersDoNotImportProf(t *testing.T) {
	const self = "cgcm/internal/prof"
	for _, dir := range []string{"../machine", "../runtime", "../interp"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		scanned := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			scanned++
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == self {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), self)
				}
			}
		}
		if scanned == 0 {
			t.Errorf("no non-test Go files under %s", dir)
		}
	}
}
