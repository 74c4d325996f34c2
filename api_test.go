package noctg_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"noctg"
)

// TestEndToEndFlow exercises the full public API: reference run → traces →
// .trc round trip → translation → .tgp and .bin round trips → TG run.
func TestEndToEndFlow(t *testing.T) {
	bench := noctg.MPMatrix(2, 8)
	opt := noctg.DefaultOptions()

	ref, err := noctg.RunReference(bench, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Traces) != 2 {
		t.Fatalf("expected 2 traces, got %d", len(ref.Traces))
	}

	// .trc round trip.
	var buf bytes.Buffer
	if err := ref.Traces[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := noctg.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != ref.Traces[0].Len() {
		t.Fatal(".trc round trip lost events")
	}

	progs, stats, _, err := noctg.TranslateAll(bench, ref.Traces,
		noctg.DefaultTranslateConfig(noctg.PollRangesFor(bench)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PollLoops == 0 {
		t.Fatal("MP matrix should produce poll loops")
	}

	// .tgp round trip.
	var tgp bytes.Buffer
	if err := noctg.WriteTGP(progs[0], &tgp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tgp.String(), "MASTER[0,0]") {
		t.Fatalf(".tgp missing header:\n%s", tgp.String())
	}
	reasm, err := noctg.AssembleTGP(tgp.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(reasm.Insts) != len(progs[0].Insts) {
		t.Fatal(".tgp round trip changed the program")
	}

	// .bin round trip.
	var bin bytes.Buffer
	if err := progs[0].WriteBin(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := noctg.ReadBin(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromBin.Insts) != len(progs[0].Insts) {
		t.Fatal(".bin round trip changed the program")
	}

	tg, err := noctg.RunTG(bench, progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(tg.Makespan) - float64(ref.Makespan)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(ref.Makespan) > 0.03 {
		t.Fatalf("TG makespan %d deviates from ARM %d", tg.Makespan, ref.Makespan)
	}
}

// TestFacadeIsWhatExamplesUse keeps api.go from growing back into a mirror
// of the internal packages: every exported identifier it declares must be
// selected as noctg.X by a program under examples/ or by this file. The
// module path is the bare "noctg", so nothing outside this repository can
// import the facade — an alias nobody here selects has no user at all.
func TestFacadeIsWhatExamplesUse(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, decl := range api.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						declared[sp.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							declared[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("api.go declares nothing: the parse went wrong")
	}

	users, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(users) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	users = append(users, "api_test.go")
	for _, path := range users {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "noctg" {
					delete(declared, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if len(declared) > 0 {
		unused := make([]string, 0, len(declared))
		for name := range declared {
			unused = append(unused, name)
		}
		sort.Strings(unused)
		t.Fatalf("api.go declares %d exported identifiers that no example and no test in api_test.go selects; delete them or use them:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}
