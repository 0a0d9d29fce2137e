package nlfl_test

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

// exportGuardPackages are the packages whose exported API must have a
// caller outside the package's own tests. Widening the guard to another
// package means adding its directory here.
var exportGuardPackages = []string{"internal/runtime", "internal/samplesort", "internal/service", "internal/stats"}

// exportAllow lists exported names that no Go code names yet that stay,
// each with its reason: documentation cites them, or the standard library
// calls them through an interface.
var exportAllow = map[string]string{
	"internal/runtime.DeliveryFloor":         "DESIGN.md §12 documents it as the serialized-delivery makespan floor of a topology",
	"internal/service.SubmitIterative":       "DESIGN.md §14 documents it as the service face of the closed-loop iterative controller",
	"internal/service.AdmissionError.Unwrap": "errors.Is calls it through the Unwrap interface, so errors.Is(err, ErrAdmissionRejected) holds",
}

// TestNoUnusedExports fails when an exported function, type, variable,
// constant or method declared in non-test code of a guarded package is
// referenced nowhere but in that package's own _test.go files. Every
// other Go file of the repository counts as a caller: the package's own
// non-test code, every other package, the root *_test.go experiments and
// the benchmark/ module. Struct fields are not checked. A method counts
// as used when any selector outside the package's tests names it — the
// guard works on syntax, not types, so it errs towards "used".
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir  string
		test bool
		ast  *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/out holds the benchmark's build cache, not code.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "benchmark/out") {
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
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared[pkg][name] is the position of each exported top-level name
	// or method ("Type.Method") of a guarded package's non-test code.
	declared := map[string]map[string]token.Pos{}
	used := map[string]map[string]bool{}
	for _, pkg := range exportGuardPackages {
		declared[pkg], used[pkg] = map[string]token.Pos{}, map[string]bool{}
	}
	for _, f := range files {
		decl := declared[f.dir]
		if decl == nil || f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decl[d.Name.Name] = d.Name.Pos()
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					decl[recv+"."+d.Name.Name] = d.Name.Pos()
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decl[s.Name.Name] = s.Name.Pos()
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decl[n.Name] = n.Pos()
							}
						}
					}
				}
			}
		}
	}

	// methods[m] lists the guarded packages' methods named m, as
	// {package, "Type.m"} pairs: any selector .m outside the package's
	// tests uses them all.
	methods := map[string][][2]string{}
	for pkg, decl := range declared {
		for name := range decl {
			if _, m, ok := strings.Cut(name, "."); ok {
				methods[m] = append(methods[m], [2]string{pkg, name})
			}
		}
	}
	for _, f := range files {
		if declared[f.dir] != nil && f.test {
			continue // the package's own tests are no callers
		}
		// Local names under which this file imports a guarded package.
		imported := map[string]string{}
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, pkg := range exportGuardPackages {
				if strings.HasSuffix(path, "/"+pkg) {
					name := filepath.Base(pkg)
					if imp.Name != nil {
						name = imp.Name.Name
					}
					imported[name] = pkg
				}
			}
		}
		own := declared[f.dir]
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imported[x.Name]; ok {
						used[pkg][n.Sel.Name] = true
					}
				}
				for _, m := range methods[n.Sel.Name] {
					used[m[0]][m[1]] = true
				}
			case *ast.Ident:
				if pos, ok := own[n.Name]; ok && pos != n.Pos() {
					used[f.dir][n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for pkg, decl := range declared {
		for name, pos := range decl {
			key := pkg + "." + name
			_, allowed := exportAllow[key]
			switch {
			case used[pkg][name] && allowed:
				t.Errorf("%s is on the allow-list but has a caller now: drop it from exportAllow", key)
			case !used[pkg][name] && !allowed:
				unused = append(unused, fset.Position(pos).String()+": "+key)
			}
		}
	}
	for key := range exportAllow {
		pkg, name, _ := strings.Cut(key, ".") // package directories hold no dot
		if _, ok := declared[pkg][name]; !ok {
			t.Errorf("allow-listed %s is not declared any more: drop it from exportAllow", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only its own package's tests use it: unexport or delete it", u)
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
