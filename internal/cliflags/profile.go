// Package cliflags holds the flag groups more than one cmd/ main takes, so
// each is declared, validated and resolved once: -cpuprofile/-memprofile
// (this file) and -guard/-run-budget/-on-violation (guard.go).
package cliflags

import (
	"flag"
	"fmt"
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
// finishes the CPU profile and writes the heap profile. Call the stop
// function on the success path only (a failed run exits without profiles,
// matching the behaviour tgsweep always had).
func (f *Profile) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *f.mem != "" {
			mf, err := os.Create(*f.mem)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return err
			}
			return mf.Close()
		}
		return nil
	}, nil
}

// MustStart is Start with errors routed to stderr + exit, the shape every
// cmd/ main wants.
func (f *Profile) MustStart(tool string) (stop func()) {
	s, err := f.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
	return func() {
		if err := s(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			os.Exit(1)
		}
	}
}
