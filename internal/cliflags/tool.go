package cliflags

import (
	"fmt"
	"os"
	"slices"
	"strings"
)

// Tool is one command's exit path, named by the command: every error its
// main cannot recover from leaves through Fail, every guard violation
// through Guard.Exit.
type Tool string

// Fail prints err, prefixed with the tool's name, and exits 1. A nil err
// is a no-op.
func (t Tool) Fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t, err)
		os.Exit(1)
	}
}

// OneOf accepts value for the enum flag name only if it is one of want,
// and otherwise names it: a typo must never run a different experiment.
func OneOf(name, value string, want ...string) error {
	if slices.Contains(want, value) {
		return nil
	}
	last := len(want) - 1
	return fmt.Errorf("-%s %q: want %s or %s", name, value, strings.Join(want[:last], ", "), want[last])
}
