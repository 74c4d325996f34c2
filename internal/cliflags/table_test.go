package cliflags

import (
	"flag"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
)

// flagSet declares the flags spec lists, space-separated: "name!" is a
// bool, "name=v" a string defaulting to v, and a bare name a string
// defaulting to "".
func flagSet(spec string) *flag.FlagSet {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, f := range strings.Fields(spec) {
		if name, ok := strings.CutSuffix(f, "!"); ok {
			fs.Bool(name, false, "")
			continue
		}
		name, def, _ := strings.Cut(f, "=")
		fs.String(name, def, "")
	}
	return fs
}

// TestTableCheck drives the one checker through the three shapes the
// tools' tables take — a mode selected by the first mode flag set
// (tgsweep, tgc, tgrepro), modes selected by selector values (nocsim), and
// flags that need another one — and through the tables it must reject.
func TestTableCheck(t *testing.T) {
	const firstFlags = "print! curve! scenario grid=default out journal resume! cpuprofile"
	sims := []string{"curve", "grid", "scenario"}
	first := Table{
		Modes:   []string{"print", "curve", "scenario"},
		Default: "grid",
		Reads: map[string][]string{
			"print": {"print"}, "curve": {"curve"}, "scenario": {"curve", "scenario"}, "grid": {"grid"},
			"out": sims, "journal": sims, "resume": sims, "cpuprofile": All,
		},
		Needs: map[string]string{"resume": "journal", "curve": "scenario"},
	}
	const usageFlags = "print! curve! scenario grid out journal resume! cpuprofile"
	usage := Table{Modes: []string{"print", "curve", "scenario", "grid"}, Reads: maps.Clone(first.Reads), Needs: first.Needs}
	usage.Reads["out"] = []string{"curve", "scenario"}
	const selFlags = "bench=mp mode=arm n blocks tgp"
	sel := Table{
		Selectors: map[string][]string{"bench": {"sp", "mp", "des"}, "mode": {"arm", "tg"}},
		Reads:     map[string][]string{"n": {"sp", "mp"}, "blocks": {"des"}, "tgp": {"tg"}, "bench": All, "mode": All},
	}
	with := func(tb Table, name string, modes []string) Table {
		tb.Reads = maps.Clone(tb.Reads)
		if tb.Reads[name] = modes; modes == nil {
			delete(tb.Reads, name)
		}
		return tb
	}
	for _, tc := range []struct {
		name    string
		table   Table
		flags   string
		args    []string
		mode    string
		wantErr string
	}{
		{"first/default", first, firstFlags, nil, "grid", ""},
		{"first/scenario", first, firstFlags, []string{"-scenario", "s", "-out", "o"}, "scenario", ""},
		{"first/precedence", first, firstFlags, []string{"-print", "-scenario", "s"}, "print",
			"-scenario applies to curve/scenario runs, not -print"},
		{"first/unread", first, firstFlags, []string{"-scenario", "s", "-grid", "g"}, "scenario",
			"-grid applies to grid runs, not -scenario"},
		{"first/every mode", first, firstFlags, []string{"-print", "-cpuprofile", "p"}, "print", ""},
		{"first/false is unset", first, firstFlags, []string{"-print=false", "-grid", "g"}, "grid",
			"-print applies to print runs, not -grid"},
		{"first/empty default", first, firstFlags, []string{"-grid=", "-resume"}, "grid", "-resume requires -journal"},
		{"usage/no mode", usage, usageFlags, []string{"-out", "o"}, "", ""},
		{"usage/empty mode flag", usage, usageFlags, []string{"-grid=", "-out", "o"}, "", ""},
		{"usage/mode", usage, usageFlags, []string{"-grid", "g", "-out", "o"}, "grid",
			"-out applies to curve/scenario runs, not -grid"},
		{"needs/missing", first, firstFlags, []string{"-resume"}, "grid", "-resume requires -journal"},
		{"needs/met", first, firstFlags, []string{"-journal", "j", "-resume"}, "grid", ""},
		{"needs/mode flag", first, firstFlags, []string{"-curve"}, "curve", "-curve requires -scenario"},
		{"needs/then reads", first, firstFlags, []string{"-print", "-journal", "j", "-resume"}, "print",
			"-journal applies to curve/grid/scenario runs, not -print"},
		{"selector/defaults", sel, selFlags, []string{"-n", "4"}, "", ""},
		{"selector/unread", sel, selFlags, []string{"-bench", "des", "-n", "4"}, "",
			"-n applies to sp/mp runs, not -bench des"},
		{"selector/second selector", sel, selFlags, []string{"-bench", "sp", "-tgp", "d"}, "",
			"-tgp applies to tg runs, not -mode arm"},
		{"selector/both read", sel, selFlags, []string{"-bench", "des", "-blocks", "2", "-mode", "tg", "-tgp", "d"}, "", ""},
		{"selector/unknown value", sel, selFlags, []string{"-bench", "foo"}, "", `-bench "foo": want sp, mp or des`},
		{"table/flag left out", with(sel, "bench", nil), selFlags, nil, "", "cliflags: no known mode reads -bench"},
		{"table/no modes", with(sel, "n", []string{}), selFlags, nil, "", "cliflags: no known mode reads -n"},
		{"table/unknown mode", with(sel, "blocks", []string{"des", "spm"}), selFlags, nil, "",
			"cliflags: no known mode reads -blocks"},
		{"table/left out, no mode", with(usage, "cpuprofile", nil), usageFlags, nil, "", "cliflags: no known mode reads -cpuprofile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flagSet(tc.flags)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			mode, err := tc.table.Check(fs)
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
				t.Fatalf("Check(%v) error = %v, want %q", tc.args, err, tc.wantErr)
			}
			if !strings.HasPrefix(tc.wantErr, "cliflags:") && mode != tc.mode {
				t.Fatalf("Check(%v) mode = %q, want %q", tc.args, mode, tc.mode)
			}
		})
	}
}

// FuzzCheckFlags holds the checker's contract on random tables and
// command lines: it accepts a command line only if every flag set on it is
// read by a selected mode and has the flag it needs, and otherwise names a
// flag that was set and is at fault.
func FuzzCheckFlags(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x04, 0x80, 0x10, 0x20, 0x03, 0x30, 0x05, 0xff, 0x2a, 0x01})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0xff, 0xff, 0x05})
	modes := []string{"m0", "m1", "m2", "d", "a", "b"}
	names := []string{"m0", "m1", "m2", "d", "sel", "f0", "f1", "f2"}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := make([]byte, 12)
		copy(b, data)
		tb := Table{
			Modes:     []string{"m0", "m1", "m2", "d"},
			Selectors: map[string][]string{"sel": {"a", "b"}},
			Reads:     map[string][]string{},
			Needs:     map[string]string{},
		}
		for i, name := range names {
			var by []string
			for j, m := range modes {
				if b[i]&(1<<j) != 0 {
					by = append(by, m)
				}
			}
			if b[i]&0x80 != 0 || len(by) == 0 {
				by = All
			}
			tb.Reads[name] = by
		}
		if need := b[8]; need&0x80 != 0 {
			tb.Needs[names[need&7]] = names[need>>3&7]
		}
		if b[8]&0x40 != 0 { // d, set empty, falls back to its Default
			tb.Default = "d"
		}
		// Byte 9 sets each flag; a bool takes its value from its bit in
		// byte 10, sel and the defaulted mode flag d theirs from byte 11.
		var args []string
		set := map[string]bool{}
		for i, name := range names {
			if b[9]&(1<<i) == 0 {
				continue
			}
			set[name] = true
			switch {
			case name == "sel":
				args = append(args, "-sel", []string{"a", "b", "c"}[int(b[11])%3])
			case name == "d":
				args = append(args, "-d", []string{"", "x"}[int(b[11])/3%2])
			case b[10]&(1<<i) != 0:
				args = append(args, "-"+name+"=true")
			default:
				args = append(args, "-"+name+"=false")
			}
		}
		fs := flagSet("m0! m1! m2! d=on sel=a f0! f1! f2!")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		mode, err := tb.Check(fs)
		want := tb.Default
		for _, m := range tb.Modes {
			if v := fs.Lookup(m).Value.String(); v != "" && v != "false" {
				want = m
				break
			}
		}
		if mode != want {
			t.Fatalf("%v: mode %q, want %q", args, mode, want)
		}
		selected := []string{mode, fs.Lookup("sel").Value.String()}
		fault := func(name string) bool {
			by := tb.Reads[name]
			need, ok := tb.Needs[name]
			return name == "sel" && !slices.Contains(tb.Selectors["sel"], selected[1]) ||
				ok && !set[need] ||
				by[0] != All[0] && !slices.ContainsFunc(by, func(m string) bool { return slices.Contains(selected, m) })
		}
		if err == nil {
			for name := range set {
				if mode != "" && fault(name) {
					t.Fatalf("%v: accepted -%s (reads %v, needs %q) under modes %v", args, name, tb.Reads[name], tb.Needs[name], selected)
				}
			}
			return
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "-"), " ")
		if !set[name] || !fault(name) {
			t.Fatalf("%v: refusal %q names no set flag at fault", args, err)
		}
	})
}
