package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOneClock: clock.go is the one place a simulated second is computed,
// so no other non-test file of the module uses the value of a CostModel
// field. Setting or scaling a field in place — a what-if scenario
// building its model — is not a use. Fields are matched by name, which
// no other type in the module shares.
func TestOneClock(t *testing.T) {
	fields := map[string]bool{}
	cm := reflect.TypeOf(CostModel{})
	for i := 0; i < cm.NumField(); i++ {
		fields[cm.Field(i).Name] = true
	}
	root := filepath.Join("..", "..")
	clockFile := filepath.Join("internal", "machine", "clock.go")
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if rel == clockFile {
			return nil
		}
		scanned++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		set := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					set[lhs] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] && !set[sel] {
				t.Errorf("%s reads CostModel.%s: only clock.go computes time", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Errorf("scanned %d non-test Go files; is the module root %s?", scanned, root)
	}
}
