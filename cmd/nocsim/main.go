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
// A flag the selected run never reads is refused (internal/cliflags).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

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
	_, err := table.Check(flag.CommandLine)
	tool.Fail(err)
	gcfg, err := guards.Config()
	tool.Fail(err)

	// The benchmark's size flag is whichever of -n, -iters and -blocks
	// the table says it reads.
	var size int
	for f, v := range map[string]*int{"n": n, "iters": iters, "blocks": blocks} {
		if slices.Contains(table.Reads[f], *bench) {
			size = *v
		}
	}
	spec, err := prog.Bench(*bench, *cores, size)
	if err != nil {
		tool.Fail(fmt.Errorf("-bench %s: %w", *bench, err))
	}

	opt := exp.DefaultOptions()
	if *ic == "xpipes" {
		opt.Platform.Interconnect = platform.XPipes
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

// table maps each flag to the modes -bench, -mode and -interconnect select
// (internal/cliflags).
var table = cliflags.Table{
	Selectors: map[string][]string{
		"bench": {"spmatrix", "cacheloop", "mpmatrix", "des"}, "mode": {"arm", "tg"}, "interconnect": {"amba", "xpipes"},
	},
	Reads: map[string][]string{
		"n": {"spmatrix", "mpmatrix"}, "iters": {"cacheloop"}, "blocks": {"des"},
		"cores": {"cacheloop", "mpmatrix", "des"}, "tgp-dir": {"tg"},
		"bench": cliflags.All, "mode": cliflags.All, "interconnect": cliflags.All, "trace-dir": cliflags.All,
		"stats": cliflags.All, "guard": cliflags.All, "run-budget": cliflags.All, "on-violation": cliflags.All,
	},
}
