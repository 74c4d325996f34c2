package noctg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the files whose quoted flags, test names and go test
// patterns TestDocsNameWhatExists holds to the code.
var docFiles = []string{
	"README.md",
	"doc.go",
	"Makefile",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

// docTools are the commands whose quoted flags are checked, each against
// the Reads of the cliflags.Table literal in cmd/<tool>/main.go.
var docTools = []string{"tgsweep", "tgrepro", "nocsim", "tgc"}

// undeclaredFlags lists "tool -flag" quotes the docs make on purpose
// although the tool declares no such flag, each with its reason.
var undeclaredFlags = map[string]string{
	"tgsweep -paper": "the verify skill probes that tgsweep refuses it: the paper evaluation is tgrepro's",
}

// testKinds maps a go test pattern flag to the function prefixes it
// selects.
var testKinds = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

var testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// TestDocsNameWhatExists is the docs twin of TestNoTestOnlyExports. In
// each of docFiles, a command is a line (a Makefile, the workflow,
// doc.go, a fenced block) or an inline code span (Markdown), with
// backslash continuations joined. Every -flag a command quotes after an
// invocation of one of docTools must be a key of that tool's flag table,
// which Table.Check already holds to the flags the tool declares. Every
// -run, -bench and -fuzz pattern of a "go test" command must match, in
// each of its top-level alternatives, a function of the packages the
// command names ("^$" selects nothing on purpose). And every Test, Fuzz
// or Benchmark name the file quotes must be a declared test function or
// one of those resolved alternatives. It reads the sources with go/parser
// and builds nothing.
func TestDocsNameWhatExists(t *testing.T) {
	funcs, flags := declaredTestsAndFlags(t)
	var all []string
	for _, names := range funcs {
		all = append(all, names...)
	}
	usedUndeclared := map[string]bool{}
	nFlags, nPatterns, nNames := 0, 0, 0
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		resolved := map[string]bool{}
		for _, cmd := range docCommands(file, string(data)) {
			toks := shellTokens(cmd)
			for _, q := range quotedFlags(toks) {
				nFlags++
				switch {
				case slices.Contains(flags[q.tool], q.flag):
				case undeclaredFlags[q.tool+" -"+q.flag] != "":
					usedUndeclared[q.tool+" -"+q.flag] = true
				default:
					t.Errorf("%s: %q quotes -%s, which %s's flag table does not have", file, cmd, q.flag, q.tool)
				}
			}
			for _, p := range goTestPatterns(toks) {
				nPatterns++
				var in []string
				for _, pkg := range p.pkgs {
					if pkg == "./..." {
						in = all
						break
					}
					in = append(in, funcs[filepath.Clean(pkg)]...)
				}
				for _, alt := range topLevel(topLevel(p.pattern, '/')[0], '|') {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: %q: -%s alternative %q: %v", file, cmd, p.flag, alt, err)
						continue
					}
					if !slices.ContainsFunc(in, func(f string) bool { return hasAnyPrefix(f, testKinds[p.flag]) && re.MatchString(f) }) {
						t.Errorf("%s: %q: -%s alternative %q matches no function in %v", file, cmd, p.flag, alt, p.pkgs)
					}
					resolved[strings.Trim(alt, "^$")] = true
				}
			}
		}
		for _, name := range testNameRE.FindAllString(string(data), -1) {
			nNames++
			if !resolved[name] && !slices.Contains(all, name) {
				t.Errorf("%s quotes %s, which no _test.go file declares", file, name)
			}
		}
	}
	if nFlags == 0 || nPatterns == 0 || nNames == 0 {
		t.Fatalf("found %d quoted flags, %d go test patterns and %d test names: the scan went wrong", nFlags, nPatterns, nNames)
	}
	t.Logf("checked %d quoted flags, %d go test patterns and %d test names", nFlags, nPatterns, nNames)
	for q, why := range undeclaredFlags {
		tool, flag, _ := strings.Cut(q, " -")
		if slices.Contains(flags[tool], flag) {
			t.Errorf("undeclaredFlags lists %q (%s), but %s's flag table has it", q, why, tool)
		} else if !usedUndeclared[q] {
			t.Errorf("undeclaredFlags lists %q (%s), which no doc quotes any more", q, why)
		}
	}
}

// declaredTestsAndFlags returns the test, fuzz, benchmark and example
// functions of each package directory ("." for the root) and the Reads
// keys of each docTools flag table.
func declaredTestsAndFlags(t *testing.T) (funcs, flags map[string][]string) {
	funcs, flags = map[string][]string{}, map[string][]string{}
	fset := token.NewFileSet()
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
		dir := filepath.Dir(p)
		switch {
		case strings.HasSuffix(p, "_test.go"):
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, dl := range f.Decls {
				if fn, ok := dl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs[dir] = append(funcs[dir], fn.Name.Name)
				}
			}
		case filepath.Base(p) == "main.go" && filepath.Dir(dir) == "cmd":
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			flags[filepath.Base(dir)] = tableReads(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range docTools {
		if len(flags[tool]) == 0 {
			t.Fatalf("found no cliflags.Table Reads literal in cmd/%s/main.go", tool)
		}
	}
	return funcs, flags
}

// tableReads returns the keys of the Reads field of f's cliflags.Table
// literal.
func tableReads(f *ast.File) []string {
	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if sel, ok := cl.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Table" {
			return true
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Reads" {
				continue
			}
			for _, e := range kv.Value.(*ast.CompositeLit).Elts {
				if k, err := strconv.Unquote(e.(*ast.KeyValueExpr).Key.(*ast.BasicLit).Value); err == nil {
					keys = append(keys, k)
				}
			}
		}
		return false
	})
	return keys
}

var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// docCommands splits a doc file into the commands it quotes: for Markdown
// the lines of fenced blocks and the inline code spans elsewhere, for
// every other file each line.
func docCommands(file, text string) []string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	if !strings.HasSuffix(file, ".md") {
		return strings.Split(text, "\n")
	}
	var cmds []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			cmds = append(cmds, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range codeSpanRE.FindAllStringSubmatch(prose.String(), -1) {
		cmds = append(cmds, strings.ReplaceAll(m[1], "\n", " "))
	}
	return cmds
}

// shellTokens splits a command into words. A quote opens only at the
// start of a word or after "=", so prose apostrophes stay literal.
func shellTokens(cmd string) []string {
	var toks []string
	var cur strings.Builder
	in, quote := false, rune(0)
	for _, r := range cmd {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == ' ' || r == '\t':
			if in {
				toks, in = append(toks, cur.String()), false
				cur.Reset()
			}
		case (r == '\'' || r == '"') && (!in || strings.HasSuffix(cur.String(), "=")):
			quote, in = r, true
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		toks = append(toks, cur.String())
	}
	return toks
}

// separator reports whether tok ends a shell command.
func separator(tok string) bool {
	switch tok {
	case "|", "||", "&&", ";", "#":
		return true
	}
	return strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>") || strings.HasPrefix(tok, "<")
}

var flagRE = regexp.MustCompile(`^--?([a-zA-Z][a-zA-Z0-9-]*)`)

type quotedFlag struct{ tool, flag string }

// quotedFlags returns the flags toks quote after an invocation of one of
// docTools: a bare or path-qualified tool name (tgsweep, /tmp/tgsweep)
// or "run ./cmd/<tool>", but not a build output (-o) or a package path.
func quotedFlags(toks []string) []quotedFlag {
	var out []quotedFlag
	tool := ""
	for i, tok := range toks {
		tok = strings.TrimLeft(tok, "([")
		name := strings.TrimRight(tok[strings.LastIndexByte(tok, '/')+1:], ").,;:")
		switch {
		case separator(tok):
			tool = ""
		case slices.Contains(docTools, name):
			prev := ""
			if i > 0 {
				prev = toks[i-1]
			}
			tool = ""
			if prev != "-o" && (!strings.Contains(tok, "cmd/") || prev == "run") {
				tool = name
			}
		case tool != "":
			if m := flagRE.FindStringSubmatch(tok); m != nil {
				out = append(out, quotedFlag{tool, m[1]})
			}
		}
	}
	return out
}

type testPattern struct {
	flag, pattern string
	pkgs          []string
}

// goTestPatterns returns the -run, -bench and -fuzz patterns of the
// "go test" command in toks, if any, each with the packages the command
// names ("." when it names none).
func goTestPatterns(toks []string) []testPattern {
	start := slices.IndexFunc(toks, func(s string) bool { return s == "go" || s == "$(GO)" })
	if start < 0 || start+1 >= len(toks) || toks[start+1] != "test" {
		return nil
	}
	var pats []testPattern
	var pkgs []string
	for i := start + 2; i < len(toks) && !separator(toks[i]); i++ {
		tok := toks[i]
		if tok == "." || strings.HasPrefix(tok, "./") {
			pkgs = append(pkgs, tok)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(tok, "-"), "=")
		if !strings.HasPrefix(tok, "-") || testKinds[name] == nil {
			continue
		}
		if !hasVal && i+1 < len(toks) {
			i++
			val, hasVal = toks[i], true
		}
		if hasVal && val != "^$" {
			pats = append(pats, testPattern{flag: name, pattern: val})
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for i := range pats {
		pats[i].pkgs = pkgs
	}
	return pats
}

// topLevel splits a regular expression at each sep outside brackets and
// parentheses.
func topLevel(re string, sep byte) []string {
	var parts []string
	depth, last := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts, last = append(parts, re[last:i]), i+1
			}
		}
	}
	return append(parts, re[last:])
}

func hasAnyPrefix(s string, prefixes []string) bool {
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(s, p) })
}
