package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestExecFlags pins the one resolution of -workers/-kernel that tgsweep
// and tgrepro share: the default is the event kernel, and the removed
// "skip" and "auto" values are rejected by name like any other unknown
// kernel, with the two kernels that exist.
func TestExecFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		workers int
		kernel  string
		wantErr string
	}{
		{name: "defaults", kernel: "event"},
		{name: "strict", args: []string{"-kernel", "strict", "-workers", "3"}, workers: 3, kernel: "strict"},
		{name: "skip", args: []string{"-kernel", "skip"}, wantErr: `unknown kernel "skip" (want strict or event)`},
		{name: "auto", args: []string{"-kernel", "auto"}, wantErr: `unknown kernel "auto"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := flag.CommandLine
			defer func() { flag.CommandLine = saved }()
			flag.CommandLine = flag.NewFlagSet(tc.name, flag.ContinueOnError)
			flag.CommandLine.SetOutput(io.Discard)
			x := RegisterExec()
			if err := flag.CommandLine.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			k, err := x.Kernel()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Kernel() error = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if k.String() != tc.kernel || x.Workers() != tc.workers {
				t.Fatalf("Kernel(), Workers() = %v, %d; want %v, %d", k, x.Workers(), tc.kernel, tc.workers)
			}
		})
	}
}
