package noctg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists exported identifiers under internal/ that only
// tests name, each kept on purpose because tests in another package need
// it (a same-package test reads the field itself). Keys are
// "package.Name" for package-level names and "package.Type.Method" for
// methods.
var testOnlyAllowed = map[string]string{
	"cpu.Core.Reg":                "platform's kernel property test fingerprints every core's registers",
	"cpu.Core.PC":                 "platform's kernel property test fingerprints every core's program counter",
	"stochastic.Generator.Issued": "the root alloc guard and benchmarks, and platform's kernel property test, count accepted requests on engines with no fabric to complete them",
}

// TestNoTestOnlyExports keeps production code to what production runs:
// every exported identifier declared in a non-test file under internal/
// must be named by some non-test Go file of the module other than at its
// declaration. benchmark/, cmd/, examples/ and api.go all count. A
// package-level name counts as used when its own package names it or
// another file selects it through the package's import; a method counts
// as used when any non-test file names it at all (a call, a method value
// or an interface's method list). internal/simtest is the test-support
// package and is exempt. A name that only tests need belongs in a
// _test.go file (a package's export_test.go serves its external tests)
// or, when tests in other packages need it, in testOnlyAllowed with its
// reason.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "noctg"
	type decl struct {
		pkg, key, file string
		method         bool
	}
	fset := token.NewFileSet()
	var decls []decl
	declSites := map[*ast.Ident]bool{}
	pkgIdents := map[string]map[string]bool{} // package → names used bare in it
	selected := map[string]bool{}             // "package.Name" selected through an import
	anyIdent := map[string]bool{}             // every name used anywhere

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(p, "internal"+string(filepath.Separator)) &&
			!strings.HasPrefix(p, filepath.Join("internal", "simtest")) {
			add := func(id *ast.Ident, key string, method bool) {
				if id.IsExported() {
					declSites[id] = true
					decls = append(decls, decl{pkg, key, p, method})
				}
			}
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					if dl.Recv == nil {
						add(dl.Name, dl.Name.Name, false)
						continue
					}
					recv := dl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if r, ok := recv.(*ast.Ident); ok && r.IsExported() {
						add(dl.Name, r.Name+"."+dl.Name.Name, true)
					}
				case *ast.GenDecl:
					for _, sp := range dl.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							add(sp.Name, sp.Name.Name, false)
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								add(n, n.Name, false)
							}
						}
					}
				}
			}
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		if pkgIdents[pkg] == nil {
			pkgIdents[pkg] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					declSites[n.Name] = true // a method's own name is no use of it
				}
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						declSites[id] = true // nor is a field of the same name
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						selected[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declSites[n] {
					pkgIdents[pkg][n.Name] = true
					anyIdent[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: the walk went wrong")
	}

	var unused []string
	for _, d := range decls {
		short := path.Base(d.pkg) + "." + d.key
		if _, ok := testOnlyAllowed[short]; ok {
			continue
		}
		if d.method {
			if anyIdent[d.key[strings.IndexByte(d.key, '.')+1:]] {
				continue
			}
		} else if pkgIdents[d.pkg][d.key] || selected[d.pkg+"."+d.key] {
			continue
		}
		unused = append(unused, d.file+": "+short)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d exported identifiers under internal/ are named by no non-test file; delete them, move them into a _test.go file, or allowlist them with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
	for key := range testOnlyAllowed {
		found := false
		for _, d := range decls {
			if path.Base(d.pkg)+"."+d.key == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("testOnlyAllowed names %s, which is no longer declared", key)
		}
	}
}
