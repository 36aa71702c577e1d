package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnitQueriesLiveInOnePlace keeps the copies from growing back: which
// remark names a ledger unit is decided by remarks.Explain, and which unit
// of one ledger is which unit of another by JoinUnits. Outside
// internal/remarks no non-test Go file under internal/ or cmd/ may call
// remarks.MatchesUnit, and outside this package none may call a Keys
// method with no arguments: a ledger's cross-run keys are JoinUnits'
// business (maps.Keys takes an argument and passes).
func TestUnitQueriesLiveInOnePlace(t *testing.T) {
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			files++
			dir := filepath.ToSlash(filepath.Dir(path))
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case sel.Sel.Name == "MatchesUnit" && dir != "../../internal/remarks":
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "remarks" {
						t.Errorf("%s: remarks.MatchesUnit outside internal/remarks; ask remarks.Explain", fset.Position(call.Pos()))
					}
				case sel.Sel.Name == "Keys" && len(call.Args) == 0 && dir != "../../internal/trace":
					t.Errorf("%s: a ledger's keys read outside internal/trace; pair units with trace.JoinUnits", fset.Position(call.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked only %d files", files)
	}
}
