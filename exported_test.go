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
const maxExported = 811

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

// localExportAllowlist names the exported top-level names in internal/ that
// no Go file outside their package directory names, each with the reason
// it stays exported. Every entry is a signature type: other packages use
// it through an exported function or field without spelling its name, and
// no interface their callers already use would serve instead.
var localExportAllowlist = map[string]string{
	"clipper/internal/adapter.PredictReq":         "DecodePredictRequest's result",
	"clipper/internal/baseline.TFServing":         "baseline.New's result",
	"clipper/internal/batching.AdaptiveSnapshot":  "Queue.Window's result",
	"clipper/internal/batching.TenantLoad":        "Queue.TenantStats' element",
	"clipper/internal/container.Local":            "NewLocal's result",
	"clipper/internal/core.HealthMonitor":         "StartHealthMonitor's result",
	"clipper/internal/core.TenantStatus":          "ReplicaStatus.Tenants' element",
	"clipper/internal/dataset.TableRow":           "Table1's element",
	"clipper/internal/experiments.Scale":          "the type of Quick, Full and Run's scale",
	"clipper/internal/metrics.Summary":            "Histogram.Snapshot's result",
	"clipper/internal/models.DeepSpec":            "Table2's element",
	"clipper/internal/quantile.Line":              "Fit's result",
	"clipper/internal/rpc.MsgType":                "the type of Frame.Type and MsgRequest/MsgResponse",
	"clipper/internal/simnet.Fabric":              "NewFabric's result",
	"clipper/internal/statestore.FileStore":       "OpenFileStore's result; cmd/statestore reads TornTail and Len",
	"clipper/internal/workload.OpenLoopResult":    "MeasureOpenLoop's result",
	"clipper/internal/workload.SequentialSampler": "NewSequentialSampler's result",
	"clipper/internal/workload.Zipf":              "NewZipf's result",
	"clipper/internal/workload.ZipfSampler":       "NewZipfSampler's result",
}

// TestNoPackageLocalExports fails on an exported top-level name (func,
// type, var, const) declared in a non-test file under internal/ that no Go
// file outside its package directory selects as pkg.Name, benchmark/ and
// test files included, unless localExportAllowlist gives the reason it
// stays exported. Such a name is part of the surface a reader must learn
// but of no other package's: unexport it, or delete it if only tests use it.
func TestNoPackageLocalExports(t *testing.T) {
	declared := make(map[string]string) // "import/path.Name" -> declaring dir
	used := make(map[string]bool)       // "import/path.Name" selected outside its dir
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") && f.Name.Name != "main" {
			for _, name := range topLevelNames(f) {
				if ast.IsExported(name) {
					declared["clipper/"+dir+"."+name] = dir
				}
			}
		}
		for key := range selectedNames(f) {
			if !strings.HasPrefix(key, "clipper/"+dir+".") {
				used[key] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var local []string
	for key := range declared {
		if !used[key] && localExportAllowlist[key] == "" {
			local = append(local, key)
		}
	}
	for key := range localExportAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist entry %s names nothing declared", key)
		} else if used[key] {
			t.Errorf("allowlist entry %s is selected outside its package: drop the entry", key)
		}
	}
	sort.Strings(local)
	for _, key := range local {
		t.Errorf("%s is exported but named only inside %s", key, declared[key])
	}
	if len(local) > 0 {
		t.Errorf("%d package-local exported names: unexport them, delete them, or allowlist them with a reason", len(local))
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
		for key := range selectedNames(f) {
			dot := strings.LastIndex(key, ".")
			if out[key[:dot]] == nil {
				out[key[:dot]] = make(map[string]bool)
			}
			out[key[:dot]][key[dot+1:]] = true
		}
	}
	return out, nil
}

// selectedNames returns the names f selects from this module's packages,
// as "import/path.Name" keys.
func selectedNames(f *ast.File) map[string]bool {
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
	out := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" {
				out[local[id.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}

// topLevelNames returns the names f declares at package level: funcs
// without a receiver, types, vars and consts.
func topLevelNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						names = append(names, name.Name)
					}
				}
			}
		}
	}
	return names
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
		for _, name := range topLevelNames(f) {
			names[name] = true
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
