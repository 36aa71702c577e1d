package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestIntrinsicTable: ids index the table, names are unique, every Math
// row is Pure and nothing else an OpIntrinsic can name is, and a verb's
// Name is the row RuntimeCall reads it back from — for all eight verbs.
func TestIntrinsicTable(t *testing.T) {
	verbs := 0
	for i := range Intrinsics {
		row := &Intrinsics[i]
		if row.Name == "" || row.ID != IntrinsicID(i) || intrinsicByName[row.Name] != row {
			t.Fatalf("row %d (%q): id %d, or another row has its name", i, row.Name, row.ID)
		}
		in := &Instr{Op: OpIntrinsic, Name: row.Name}
		if in.Intrinsic() != row || in.Pure() != row.Math {
			t.Errorf("%s: Intrinsic() = %p, Pure() = %v, Math = %v", row.Name, in.Intrinsic(), in.Pure(), row.Math)
		}
		if row.Math && (row.Cost == 0 || row.Place != Anywhere || row.Alloc != NoAlloc || len(row.Ref)+len(row.Mod) > 0) {
			t.Errorf("%s: a Math row runs anywhere at a static cost and touches no memory: %+v", row.Name, row)
		}
		verb, ok := in.RuntimeCall()
		if ok != strings.HasPrefix(row.Name, runtimePrefix) || ok != in.IsRuntimeCall("") {
			t.Errorf("%s: RuntimeCall ok = %v", row.Name, ok)
		}
		if ok {
			verbs++
			if verb.Name() != row.Name {
				t.Errorf("%s: verb %+v is named %s", row.Name, verb, verb.Name())
			}
		}
	}
	if verbs != 8 {
		t.Errorf("%d run-time library rows, want 8", verbs)
	}
	if (&Instr{Op: OpIntrinsic, Name: "no_such_builtin"}).Pure() || !(&Instr{Op: OpAdd}).Pure() || (&Instr{Op: OpLoad}).Pure() {
		t.Error("Pure misjudges an instruction that is no table row")
	}
}

// TestNoBuiltinListsOutsideTheTable keeps the copies from growing back:
// outside this package no non-test Go file under internal/ or cmd/ may
// hold a string literal that spells a Math builtin or a run-time library
// call. A pass that needs to know what a call does asks the table
// (Instr.Intrinsic, Pure, RuntimeCall); one that emits a call takes the
// name from the row or the verb. (The heap builtins' names are exempt:
// they double as allocation-unit labels. Whole mini-C programs are one
// long literal each and never match.)
func TestNoBuiltinListsOutsideTheTable(t *testing.T) {
	math := map[string]bool{}
	for i := range Intrinsics {
		if Intrinsics[i].Math {
			math[Intrinsics[i].Name] = true
		}
	}
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == "../../internal/ir" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			files++
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && (math[s] || strings.HasPrefix(s, runtimePrefix)) {
					t.Errorf("%s: the literal %s names a builtin; ask ir.Intrinsics instead",
						fset.Position(lit.Pos()), lit.Value)
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
