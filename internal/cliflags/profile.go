// Package cliflags holds the flag groups more than one cmd/ main takes, so
// each is declared, validated and resolved once — -cpuprofile/-memprofile
// (this file), -workers/-kernel (exec.go), -guard/-run-budget/
// -on-violation (guard.go) — and the one exit path every main leaves
// through on an error or a guard violation (tool.go).
package cliflags

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the registered profiling flag values.
type Profile struct {
	cpu *string
	mem *string
}

// RegisterProfile adds -cpuprofile and -memprofile to the default flag set.
// Call before flag.Parse.
func RegisterProfile() *Profile {
	return &Profile{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins CPU profiling if requested and returns a stop function that
// finishes the CPU profile and writes the heap profile; errors either way
// fail the tool. Call the stop function on the success path only (a
// failed run exits without profiles).
func (f *Profile) Start(t Tool) (stop func()) {
	var cpuFile *os.File
	if *f.cpu != "" {
		var err error
		cpuFile, err = os.Create(*f.cpu)
		t.Fail(err)
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			t.Fail(err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			t.Fail(cpuFile.Close())
		}
		if *f.mem != "" {
			mf, err := os.Create(*f.mem)
			t.Fail(err)
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				t.Fail(err)
			}
			t.Fail(mf.Close())
		}
	}
}
