// Command nocsim runs one benchmark on a chosen platform, as a bit- and
// cycle-true (miniARM) simulation or through the full TG flow, optionally
// writing .trc traces and .tgp programs.
//
// Examples:
//
//	nocsim -bench mpmatrix -cores 4 -n 16
//	nocsim -bench des -cores 3 -blocks 16 -interconnect xpipes
//	nocsim -bench spmatrix -mode tg -trace-dir /tmp/trc -tgp-dir /tmp/tgp
//
// A flag set on the command line that the selected run never reads (-n
// outside spmatrix/mpmatrix, -tgp-dir under -mode arm, ...) is refused by
// name, never ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"noctg/internal/cliflags"
	"noctg/internal/core"
	"noctg/internal/exp"
	"noctg/internal/platform"
	"noctg/internal/prog"
)

const tool cliflags.Tool = "nocsim"

func main() {
	var (
		bench    = flag.String("bench", "mpmatrix", "benchmark: spmatrix, cacheloop, mpmatrix, des")
		cores    = flag.Int("cores", 2, "number of processors")
		n        = flag.Int("n", 16, "matrix dimension (spmatrix/mpmatrix)")
		iters    = flag.Int("iters", 30000, "loop iterations (cacheloop)")
		blocks   = flag.Int("blocks", 16, "blocks per core (des)")
		ic       = flag.String("interconnect", "amba", "interconnect: amba or xpipes")
		mode     = flag.String("mode", "arm", "arm (reference) or tg (full TG flow)")
		traceDir = flag.String("trace-dir", "", "write per-master .trc files here")
		tgpDir   = flag.String("tgp-dir", "", "write per-master .tgp programs here (tg mode)")
		stats    = flag.Bool("stats", false, "print platform statistics")
	)
	guards := cliflags.RegisterGuard("fail")
	flag.Parse()
	gcfg, err := guards.Config()
	tool.Fail(err)
	tool.Fail(cliflags.OneOf("mode", *mode, "arm", "tg"))

	var spec *prog.Spec
	switch *bench {
	case "spmatrix":
		spec = prog.SPMatrix(*n)
	case "cacheloop":
		spec = prog.Cacheloop(*cores, *iters)
	case "mpmatrix":
		spec = prog.MPMatrix(*cores, *n)
	case "des":
		spec = prog.DES(*cores, *blocks)
	default:
		tool.Fail(fmt.Errorf("unknown benchmark %q", *bench))
	}
	tool.Fail(checkFlags())

	opt := exp.DefaultOptions()
	switch *ic {
	case "amba":
		opt.Platform.Interconnect = platform.AMBA
	case "xpipes":
		opt.Platform.Interconnect = platform.XPipes
	default:
		tool.Fail(fmt.Errorf("unknown interconnect %q", *ic))
	}

	if gcfg != nil {
		opt.Guard = *gcfg
	}

	traced := *traceDir != "" || *mode == "tg"
	ref, err := exp.RunReference(spec, opt, traced)
	if guards.Check(tool, err) {
		return
	}
	fmt.Printf("reference (%s, %s, %dP): %d cycles in %v\n",
		spec.Name, opt.Platform.Interconnect, spec.Cores, ref.Makespan, ref.Wall)

	if *traceDir != "" {
		tool.Fail(os.MkdirAll(*traceDir, 0o755))
		for i, tr := range ref.Traces {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s_m%d.trc", spec.Name, i))
			f, err := os.Create(path)
			tool.Fail(err)
			tool.Fail(tr.Write(f))
			tool.Fail(f.Close())
			fmt.Printf("wrote %s (%d events)\n", path, len(tr.Events))
		}
	}

	if *mode == "tg" {
		progs, tstats, twall, err := exp.TranslateAll(spec, ref.Traces,
			core.DefaultTranslateConfig(exp.PollRangesFor(spec)))
		tool.Fail(err)
		fmt.Printf("translated %d events into %d programs in %v (%d poll loops, %d polls collapsed)\n",
			tstats.Events, len(progs), twall, tstats.PollLoops, tstats.PollReadsCollapsed)
		if *tgpDir != "" {
			tool.Fail(os.MkdirAll(*tgpDir, 0o755))
			for i, p := range progs {
				path := filepath.Join(*tgpDir, fmt.Sprintf("%s_m%d.tgp", spec.Name, i))
				f, err := os.Create(path)
				tool.Fail(err)
				tool.Fail(p.Format(f))
				tool.Fail(f.Close())
				fmt.Printf("wrote %s (%d instructions)\n", path, len(p.Insts))
			}
		}
		tg, err := exp.RunTG(spec, progs, opt)
		if guards.Check(tool, err) {
			return
		}
		gain := float64(ref.Wall) / float64(tg.Wall)
		fmt.Printf("TG platform: %d cycles in %v (gain %.2fx, cycle error %+d)\n",
			tg.Makespan, tg.Wall, gain, int64(tg.Makespan)-int64(ref.Makespan))
	}

	if *stats {
		sys := ref.Sys
		if sys.Bus != nil {
			fmt.Printf("bus: busy %d cycles, idle %d, grants %d\n",
				sys.Bus.BusyCycles(), sys.Bus.IdleCycles(), sys.Bus.TotalGrants())
			for i, w := range sys.Bus.WaitCycles() {
				fmt.Printf("  master %d: %d grants, %d wait cycles\n", i, sys.Bus.Grants[i], w)
			}
		}
		if sys.Net != nil {
			fmt.Printf("noc: %d flits routed over %d nodes\n", sys.Net.FlitsRouted(), sys.Net.Nodes())
		}
		acq, fails, rel := sys.Sems.Stats()
		fmt.Printf("semaphores: %d acquires, %d failed polls, %d releases\n", acq, fails, rel)
	}
}

// reads is the one table of the flags only some runs read: the flag that
// selects the run (-bench or -mode) and the values of it that read the
// flag. Every other flag is read by every run.
var reads = map[string]struct {
	by     string
	values []string
}{
	"n":       {"bench", []string{"spmatrix", "mpmatrix"}},
	"iters":   {"bench", []string{"cacheloop"}},
	"blocks":  {"bench", []string{"des"}},
	"cores":   {"bench", []string{"cacheloop", "mpmatrix", "des"}},
	"tgp-dir": {"mode", []string{"tg"}},
}

// checkFlags refuses, by name, the first explicitly set flag (in lexical
// order) that the selected run does not read.
func checkFlags() error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		r, ok := reads[f.Name]
		if !ok || err != nil {
			return
		}
		if v := flag.Lookup(r.by).Value.String(); !slices.Contains(r.values, v) {
			err = fmt.Errorf("-%s applies to %s runs, not -%s %s", f.Name, strings.Join(r.values, "/"), r.by, v)
		}
	})
	return err
}
