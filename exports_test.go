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

// exportAllow lists the exported names of internal packages that stay
// without a caller in non-test code, each with its reason: documentation
// or an open ROADMAP item cites them, or the standard library calls them
// through an interface.
var exportAllow = map[string]string{
	"internal/runtime.DeliveryFloor":              "DESIGN.md §12 documents it as the serialized-delivery makespan floor of a topology",
	"internal/service.SubmitIterative":            "DESIGN.md §14 documents it as the service face of the closed-loop iterative controller",
	"internal/service.AdmissionError.Unwrap":      "errors.Is calls it through the Unwrap interface, so errors.Is(err, ErrAdmissionRejected) holds",
	"internal/core.DegenerateRectError.Unwrap":    "errors.Is calls it through the Unwrap interface, so errors.Is(err, ErrDegenerateRect) holds",
	"internal/capacity.FromObserved":              "DESIGN.md §14 cites it as the planner's model rebuilt from measured rates, and ROADMAP item 6 fits the per-chunk latency through it",
	"internal/experiments.Fig4MatMul":             "DESIGN.md's extension table and EXPERIMENTS.md cite it as the Figure 4 sweep under the matmul volume accounting, the GEMM path ROADMAP keeps parked",
	"internal/nldlt.IllusorySpeedup":              "EXPERIMENTS.md cites it as the speedup illusion of Section 2",
	"internal/nldlt.MultiInstallmentWorkFraction": "DESIGN.md's extension table cites it as the multi-installment corollary of Section 2",
	"internal/outer.WeightedCommTime":             "DESIGN.md's extension table cites it as the per-link-weighted communication time",
}

// maxExportAllow caps exportAllow: a name that stays without a caller is
// an exception that needs its reason, not a habit.
const maxExportAllow = 10

// TestNoUnusedExports fails when a top-level function, type, variable or
// constant, or a method, declared in non-test code has no caller:
//
//   - An exported name of a package under internal/ (every one found by
//     walking the tree) must be referenced by non-test code: the
//     package's own, another package's, the root *_test.go experiments'
//     or the benchmark/ module's. No other _test.go file is a caller.
//   - An unexported name of any package of the main module must be
//     referenced by a non-test file of its own package. Code that only
//     tests need belongs in a _test.go file.
//
// A reference inside the declaration itself (a recursive call, a type
// naming itself) does not count, nor does a method's receiver naming its
// type. Struct fields are not checked. A method counts as used when any
// selector a caller may write names it, except a selector that is not
// called and shares its name with a struct field declared in the module:
// that one reads the field. An exported method of an unexported type is
// not checked — the guard works on syntax, not types, so it errs towards
// "used".
func TestNoUnusedExports(t *testing.T) {
	if len(exportAllow) > maxExportAllow {
		t.Errorf("exportAllow has %d rows, more than %d: give the names callers or delete them", len(exportAllow), maxExportAllow)
	}
	fset := token.NewFileSet()
	type file struct {
		dir         string
		test, bench bool // a _test.go file; a file of the benchmark/ module
		ast         *ast.File
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
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{dir: dir, test: strings.HasSuffix(path, "_test.go"),
			bench: dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A declaration is guarded when its name must have a caller; span is
	// its extent, inside which references to it do not count.
	type decl struct {
		name     token.Pos
		span     [2]token.Pos
		exported bool
		used     bool
	}
	// declared[pkg][name] holds each guarded top-level name or method
	// ("Type.Method") of a main-module package's non-test code; benchmark/
	// is another module, so its names are not guarded.
	declared := map[string]map[string]*decl{}
	add := func(pkg, name string, pos token.Pos, node ast.Node) {
		exported := ast.IsExported(name[strings.LastIndex(name, ".")+1:])
		if exported && !strings.HasPrefix(pkg, "internal/") || name == "_" || name == "init" || name == "main" {
			return
		}
		if declared[pkg] == nil {
			declared[pkg] = map[string]*decl{}
		}
		declared[pkg][name] = &decl{name: pos, span: [2]token.Pos{node.Pos(), node.End()}, exported: exported}
	}
	for _, f := range files {
		if f.test || f.bench {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(f.dir, d.Name.Name, d.Name.Pos(), d)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) || !d.Name.IsExported() {
					add(f.dir, recv+"."+d.Name.Name, d.Name.Pos(), d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(f.dir, s.Name.Name, s.Name.Pos(), s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(f.dir, n.Name, n.Pos(), s)
						}
					}
				}
			}
		}
	}

	// fields holds the name of every struct field declared in the module.
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						fields[id.Name] = true
					}
				}
			}
			return true
		})
	}

	// methods[m] lists the guarded methods named m: any selector .m a
	// caller may write uses them all.
	type method struct{ pkg, key string }
	methods := map[string][]method{}
	for pkg, decls := range declared {
		for key := range decls {
			if _, m, ok := strings.Cut(key, "."); ok {
				methods[m] = append(methods[m], method{pkg, key})
			}
		}
	}
	for _, f := range files {
		if f.test && f.dir != "." && !f.bench {
			continue // package tests call nothing
		}
		// Only a package's own non-test code may call its unexported names.
		use := func(pkg, key string, pos token.Pos) {
			d := declared[pkg][key]
			if d == nil || !d.exported && (pkg != f.dir || f.test) || d.span[0] <= pos && pos < d.span[1] {
				return
			}
			d.used = true
		}
		// Local names under which this file imports a guarded package.
		imported := map[string]string{}
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(path, "nlfl/"); ok && declared[pkg] != nil {
				name := filepath.Base(pkg)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = pkg
			}
		}
		// A method's receiver names the method's own type (and declares the
		// receiver variable): neither is a use.
		inRecv := map[token.Pos]bool{}
		for _, d := range f.ast.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inRecv[id.Pos()] = true
					}
					return true
				})
			}
		}
		// Selectors in call position; the walk meets a call before its
		// function.
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imported[x.Name]; ok {
						use(pkg, n.Sel.Name, n.Pos())
					}
				}
				if called[n] || !fields[n.Sel.Name] {
					for _, m := range methods[n.Sel.Name] {
						use(m.pkg, m.key, n.Pos())
					}
				}
			case *ast.Ident:
				if !inRecv[n.Pos()] {
					use(f.dir, n.Name, n.Pos())
				}
			}
			return true
		})
	}

	var unused []string
	for pkg, decls := range declared {
		for name, d := range decls {
			key := pkg + "." + name
			_, allowed := exportAllow[key]
			switch {
			case d.used && allowed:
				t.Errorf("%s is on the allow-list but has a caller now: drop it from exportAllow", key)
			case !d.used && !allowed && d.exported:
				unused = append(unused, fset.Position(d.name).String()+": "+key+" is exported but only its own package's tests use it: unexport or delete it")
			case !d.used && !allowed:
				unused = append(unused, fset.Position(d.name).String()+": "+key+" has no caller in its package's non-test code: delete it or move it into a _test.go file")
			}
		}
	}
	for key, reason := range exportAllow {
		pkg, name, _ := strings.Cut(key, ".") // package directories hold no dot
		if d := declared[pkg][name]; d == nil || !d.exported {
			t.Errorf("allow-listed %s is not a guarded exported name: drop it from exportAllow", key)
		}
		if reason == "" {
			t.Errorf("allow-listed %s gives no reason", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
