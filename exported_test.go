package clipper_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxExported is the ceiling on the module's exported surface, as counted
// by exportedNames. Lower it in the change that shrinks the count; raising
// it needs a reason in that change.
const maxExported = 1062

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

// TestBenchmarkNamesDeclared keeps the benchmark module building from a
// root `go test ./...`. The names benchmark/ selects from this module's
// packages are pinned: computed from benchmark/*.go, not typed here. The
// test fails when one of them is no longer declared at package level in
// the package it is selected from, the deletion that would otherwise
// surface only when benchmark/ is built on its own.
func TestBenchmarkNamesDeclared(t *testing.T) {
	pinned, err := benchmarkSelectors("benchmark")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for pkg, sel := range pinned {
		declared, err := packageLevelNames(filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, "clipper"), "/")))
		if err != nil {
			t.Fatal(err)
		}
		for name := range sel {
			names = append(names, pkg+"."+name)
			if !declared[name] {
				t.Errorf("benchmark/ selects %s.%s, which %s no longer declares", pkg, name, pkg)
			}
		}
	}
	sort.Strings(names)
	t.Logf("%d names pinned by benchmark/: %s", len(names), strings.Join(names, " "))
}

// benchmarkSelectors parses every Go file in dir and returns, per import
// path of this module, the names selected from it as pkg.Name.
func benchmarkSelectors(dir string) (map[string]map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		local := make(map[string]string) // local package name -> import path
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if ipath != "clipper" && !strings.HasPrefix(ipath, "clipper/") {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = ipath
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" {
				ipath := local[id.Name]
				if out[ipath] == nil {
					out[ipath] = make(map[string]bool)
				}
				out[ipath][sel.Sel.Name] = true
			}
			return true
		})
	}
	return out, nil
}

// packageLevelNames returns the names declared at package level (funcs
// without a receiver, types, vars, consts) in the non-test files of dir.
func packageLevelNames(dir string) (map[string]bool, error) {
	if dir == "" {
		dir = "."
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range s.Names {
							names[name.Name] = true
						}
					}
				}
			}
		}
	}
	return names, nil
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
