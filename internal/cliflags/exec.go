package cliflags

import (
	"flag"

	"noctg/internal/platform"
)

// Exec holds the registered execution-knob flag values: how to run, never
// what to compute.
type Exec struct {
	workers *int
	kernel  *string
}

// RegisterExec adds -workers and -kernel to the default flag set. Call
// before flag.Parse.
func RegisterExec() *Exec {
	return &Exec{
		workers: flag.Int("workers", 0, "worker pool size (0 = all host cores)"),
		kernel: flag.String("kernel", platform.KernelEvent.String(),
			"simulation kernel: event or strict (artifacts are byte-identical under each)"),
	}
}

// Workers returns the -workers value.
func (x *Exec) Workers() int { return *x.workers }

// Kernel validates and resolves -kernel. Call after flag.Parse.
func (x *Exec) Kernel() (platform.KernelMode, error) { return platform.ParseKernel(*x.kernel) }
