package clipper_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxExported is the ceiling on the module's exported surface, as counted
// by exportedNames. Lower it in the change that shrinks the count; raising
// it needs a reason in that change.
const maxExported = 1111

// TestExportedSurface is a ratchet on the exported API: it fails when the
// count of exported names outside main packages and benchmark/ rises past
// maxExported.
func TestExportedSurface(t *testing.T) {
	n, err := exportedNames(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported names: %d (max %d)", n, maxExported)
	if n > maxExported {
		t.Fatalf("%d exported names, ceiling is %d: unexport or delete what only tests call", n, maxExported)
	}
}

// exportedNames counts, over the non-test Go files under root that are not
// in a main package or under benchmark/, every exported top-level name
// (func, type, var, const), every exported method of an exported type, and
// every exported named field of an exported struct type.
func exportedNames(root string) (int, error) {
	n := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name != "main" {
			n += exportedInFile(f)
		}
		return nil
	})
	return n, err
}

func exportedInFile(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil || receiverExported(d.Recv.List[0].Type) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					n++
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									n++
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method's receiver type is exported.
func receiverExported(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr: // generic receiver T[P]
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}
