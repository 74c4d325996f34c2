package noctg_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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
	"cpu.Core.Faulted":            "prog's runSpec fails a run whose ARM core faulted, through armMaster's promoted method",
	"cpu.Core.MemUnit":            "platform's kernel property test fingerprints every core's caches through its memory unit",
	"cache.MemUnit.ICache":        "cpu's and platform's fingerprint tests read the instruction cache's hit and miss counts",
	"cache.MemUnit.DCache":        "cpu's and platform's fingerprint tests read the data cache's hit and miss counts",
	"cache.MemUnit.Busy":          "cpu's whole-instruction test fingerprints the memory unit's state clock by clock",
	"stochastic.Generator.Issued": "the root alloc guard and benchmarks, and platform's kernel property test, count accepted requests on engines with no fabric to complete them",
	"exp.Fig2bResult.Reactive":    "sweep's paper test checks the Fig. 2(b) verdict the paper harness computes",
	"ocp.LogOf":                   "the core, cpu, platform, stochastic, trace, tgc and root tests wrap hand-built event slices as one-chunk logs",
	"mem.SemBank.Range":           "the amba, cpu, noc and stochastic tests map a semaphore bank on a bare fabric",
	"shard.Runner.Shards":         "platform's guard tests check a barrier-stall violation names a shard of the runner's count",
	"sim.Registry.Counters":       "the root alloc guard checks a platform registered its counters",
	"sim.Registry.Snapshot":       "platform's shard test compares the registries of sharded and unsharded runs",
	"sim.Histogram.Count":         "the exp, ocp, sim and stochastic tests count a histogram's samples",
}

// TestNoTestOnlyExports keeps production code to what production runs:
// every exported identifier declared in a non-test file under internal/
// must be used by some non-test Go file of the module other than at its
// declaration. benchmark/, cmd/, examples/ and api.go all count. The
// module's non-test files are type-checked (go/types), so a use is
// resolved to what it denotes: a package-level name is used where an
// identifier refers to it, and a method where a selector resolves to it
// through its receiver's type — a method of the same name on another type
// is no use of it. A call through an interface method uses every module
// type's method that implements it there (embedded ones included), and a
// type that satisfies an exported standard-library interface (fmt.Stringer,
// error, sort.Interface, …) has that interface's methods used, since the
// library calls them. internal/simtest is the test-support package and is
// exempt. A name that only tests need belongs in a _test.go file (a
// package's export_test.go serves its external tests) or, when tests in
// other packages need it, in testOnlyAllowed with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "noctg"
	type decl struct {
		key, file string
		obj       types.Object
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	var declared []*ast.Ident
	declFile := map[*ast.Ident]string{}
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		if !strings.HasPrefix(p, "internal"+string(filepath.Separator)) ||
			strings.HasPrefix(p, filepath.Join("internal", "simtest")) {
			return nil
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				declared = append(declared, id)
				declFile[id] = p
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				add(dl.Name)
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							add(n)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := newStdImporter(fset)
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		if files[p] == nil {
			return std.Import(p)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, fset, files[p], info)
		pkgs[p] = pkg
		return pkg, err
	}
	for p := range files {
		if _, err := imp(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]map[string]bool{} // interface → methods called through it
	callThrough := func(it *types.Interface, method string) {
		if ifaces[it] == nil {
			ifaces[it] = map[string]bool{}
		}
		ifaces[it][method] = true
	}
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			used[obj] = true
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				callThrough(it, fn.Name())
			}
		}
	}
	for _, pkg := range std.pkgs {
		if strings.Contains(pkg.Path(), "internal") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					callThrough(it, it.Method(i).Name())
				}
			}
		}
	}
	callThrough(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error")
	var named []types.Type
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
	}
	for it, names := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, v := range named {
			if !types.Implements(v, it) {
				continue
			}
			ms := types.NewMethodSet(v)
			for i := range ms.Len() {
				if fn := ms.At(i).Obj(); names[fn.Name()] {
					used[fn.(*types.Func).Origin()] = true
				}
			}
		}
	}

	var decls []decl
	for _, id := range declared {
		obj := info.Defs[id]
		key := path.Base(obj.Pkg().Path()) + "." + id.Name
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			recv := fn.Signature().Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			n, ok := recv.(*types.Named)
			if !ok || !n.Obj().Exported() {
				continue
			}
			key = path.Base(obj.Pkg().Path()) + "." + n.Obj().Name() + "." + id.Name
		}
		decls = append(decls, decl{key, declFile[id], obj})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: the walk went wrong")
	}

	var unused []string
	for _, d := range decls {
		if _, ok := testOnlyAllowed[d.key]; !ok && !used[d.obj] {
			unused = append(unused, d.file+": "+d.key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d exported identifiers under internal/ are used by no non-test file; delete them, move them into a _test.go file, or allowlist them with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
	for key := range testOnlyAllowed {
		found := false
		for _, d := range decls {
			if d.key == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("testOnlyAllowed names %s, which is no longer declared", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter type-checks standard-library packages from GOROOT source
// with function bodies skipped: their exported API is all an export scan
// needs, and it costs a fraction of a full check.
type stdImporter struct {
	fset *token.FileSet
	ctx  build.Context
	pkgs map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctx := build.Default
	ctx.CgoEnabled = false
	return &stdImporter{fset: fset, ctx: ctx, pkgs: map[string]*types.Package{"unsafe": types.Unsafe}}
}

func (s *stdImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	bp, err := s.ctx.Import(p, "", 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: s, IgnoreFuncBodies: true}).Check(p, s.fset, files, nil)
	s.pkgs[p] = pkg
	return pkg, err
}
