// Package cliflags holds what more than one cmd/ main shares: the flag
// table, the profile, execution and guard flag groups, and the one exit
// path (Tool).
//
// The refusal contract: each main maps every flag it declares to the
// modes that read it, in one Table. A flag set on the command line that no
// selected mode reads is refused by name, never ignored, as
// "-X applies to A/B runs, not -M"; a flag read only beside another one
// is refused without it, as "-X requires -Y". Table.Check refuses before
// any simulation or write, and a table that leaves out a declared flag
// fails every run of its tool, so every flag is either read or refused.
package cliflags

import (
	"flag"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// All, as a flag's modes in Table.Reads, means every mode reads it.
var All = []string{"*"}

// Table is a tool's one flag table.
type Table struct {
	// Modes are the mode flags in precedence order: the first one that
	// holds a value (a bool: true) selects the mode of its name, and
	// Default is the mode when none does ("": the tool has no run).
	Modes   []string
	Default string
	// Selectors maps a flag to the values it accepts; each value names a
	// mode, and every selector selects the one its flag holds.
	Selectors map[string][]string
	// Reads maps each declared flag to the modes that read it, in refusal
	// order.
	Reads map[string][]string
	// Needs maps a flag to the flag it is read only beside.
	Needs map[string]string
}

// Check resolves the run's modes from the parsed fs and refuses, by name,
// the first flag set on it (in lexical order) that lacks the flag it
// needs or that no selected mode reads. It returns the mode Modes and
// Default select; "" when they select none, and then it refuses nothing:
// the tool has no run and prints its usage.
func (t Table) Check(fs *flag.FlagSet) (mode string, err error) {
	mode = t.Default
	for _, m := range t.Modes {
		if v := fs.Lookup(m).Value.String(); v != "" && v != "false" {
			mode = m
			break
		}
	}
	// by maps each mode to the selection a refusal names: the mode flag
	// set, or the selector and the value it holds.
	by, run := map[string]string{All[0]: "*"}, []string{mode}
	for _, m := range append([]string{t.Default}, t.Modes...) {
		by[m] = "-" + mode
	}
	for _, s := range slices.Sorted(maps.Keys(t.Selectors)) {
		v := fs.Lookup(s).Value.String()
		if err := OneOf(s, v, t.Selectors[s]...); err != nil {
			return mode, err
		}
		for _, m := range t.Selectors[s] {
			by[m] = "-" + s + " " + v
		}
		run = append(run, v)
	}
	fs.VisitAll(func(f *flag.Flag) {
		unknown := slices.ContainsFunc(t.Reads[f.Name], func(m string) bool { return by[m] == "" })
		if err == nil && (len(t.Reads[f.Name]) == 0 || unknown) {
			err = fmt.Errorf("cliflags: no known mode reads -%s", f.Name)
		}
	})
	if err != nil || mode == "" && len(t.Modes) > 0 {
		return "", err
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, name := range set {
		if need, ok := t.Needs[name]; ok && !slices.Contains(set, need) {
			return mode, fmt.Errorf("-%s requires -%s", name, need)
		}
		modes := t.Reads[name]
		if modes[0] != All[0] && !slices.ContainsFunc(modes, func(m string) bool { return slices.Contains(run, m) }) {
			return mode, fmt.Errorf("-%s applies to %s runs, not %s", name, strings.Join(modes, "/"), by[modes[0]])
		}
	}
	return mode, nil
}
