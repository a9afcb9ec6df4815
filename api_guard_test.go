package autofeat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRawColumnConstructionInToolingAndExamples keeps tools and
// examples on the table readers: they load tables through
// ReadCSV/ReadCSVFile, ReadColumnarFile or lake opens — never by
// assembling columns from raw slices with the New*Column constructors.
// The readers are where each file format is decoded and a packed
// table's persisted statistics are attached; raw construction would bake
// the column storage layout into caller code, and keeping tooling off it
// is what lets that layout change without touching a single caller.
func TestNoRawColumnConstructionInToolingAndExamples(t *testing.T) {
	rawCtors := map[string]bool{
		"NewFloatColumn":  true,
		"NewIntColumn":    true,
		"NewStringColumn": true,
		"NewBoolColumn":   true,
	}
	walkToolingCalls(t, func(call *ast.CallExpr, sel *ast.SelectorExpr, pos token.Position) {
		if rawCtors[sel.Sel.Name] {
			t.Errorf("%s: constructs a column from raw slices via %s — tooling and examples must go through the table readers, not the storage constructors",
				pos, sel.Sel.Name)
		}
	})
}

// walkToolingCalls parses every Go file under cmd/ and examples/ and
// invokes fn for each selector-style call expression found.
func walkToolingCalls(t *testing.T, fn func(call *ast.CallExpr, sel *ast.SelectorExpr, pos token.Position)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, perr := parser.ParseFile(fset, path, nil, 0)
			if perr != nil {
				return perr
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					fn(call, sel, fset.Position(call.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
	}
}
