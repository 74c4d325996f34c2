// Command tgc is the TG compiler driver (Section 5's translator +
// assembler): it converts .trc traces into symbolic .tgp programs and .bin
// binary images, assembles hand-written .tgp files, and disassembles .bin
// images back to .tgp.
//
// Examples:
//
//	tgc -trc m0.trc -tgp m0.tgp -bin m0.bin        # translate + assemble
//	tgc -trc m0.trc -timeshift -tgp m0_ts.tgp      # non-reactive baseline
//	tgc -asm hand.tgp -bin hand.bin                # assemble only
//	tgc -dump m0.bin                               # disassemble
//
// -dump, -trc and -asm name the mode and exclude each other. A mode reads
// only the flags one table lists for it; a flag it never reads is refused
// by name, never ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"noctg/internal/cliflags"
	"noctg/internal/core"
	"noctg/internal/layout"
	"noctg/internal/trace"
)

const tool cliflags.Tool = "tgc"

func main() {
	var (
		trcPath   = flag.String("trc", "", "input .trc trace to translate")
		asmPath   = flag.String("asm", "", "input .tgp program to assemble")
		dumpPath  = flag.String("dump", "", "input .bin image to disassemble to stdout")
		tgpOut    = flag.String("tgp", "", "output .tgp path")
		binOut    = flag.String("bin", "", "output .bin path")
		timeshift = flag.Bool("timeshift", false, "disable poll recognition (time-shifting baseline)")
		rewind    = flag.Bool("rewind", false, "end with Jump(start) instead of Halt (free-running TG)")
		pollGap   = flag.Uint64("pollgap", core.DefaultPollGap, "fallback poll period in cycles")
	)
	flag.Parse()
	mode := modeOf()
	if mode == "" {
		flag.Usage()
		os.Exit(2)
	}
	tool.Fail(checkFlags(mode))

	switch mode {
	case "dump":
		f, err := os.Open(*dumpPath)
		tool.Fail(err)
		p, err := core.ReadBin(f)
		tool.Fail(f.Close())
		tool.Fail(err)
		tool.Fail(p.Format(os.Stdout))
	case "trc":
		f, err := os.Open(*trcPath)
		tool.Fail(err)
		tr, err := trace.Parse(f)
		tool.Fail(f.Close())
		tool.Fail(err)
		cfg := core.TranslateConfig{
			PollRanges:     []core.PollRange{{Range: layout.SemRange()}},
			DefaultPollGap: *pollGap,
			RecognizePolls: !*timeshift,
			Rewind:         *rewind,
		}
		p, stats, err := core.Translate(tr, cfg)
		tool.Fail(err)
		fmt.Fprintf(os.Stderr, "tgc: %d events -> %d instructions (%d poll loops, %d polls collapsed, %d clamped cycles)\n",
			stats.Events, len(p.Insts), stats.PollLoops, stats.PollReadsCollapsed, stats.ClampedCycles)
		emit(p, *tgpOut, *binOut)
	case "asm":
		src, err := os.ReadFile(*asmPath)
		tool.Fail(err)
		p, err := core.Assemble(string(src))
		tool.Fail(err)
		emit(p, *tgpOut, *binOut)
	}
}

// reads is the one table of the flags each mode reads besides the flag
// that names it.
var reads = map[string][]string{
	"dump": nil,
	"trc":  {"tgp", "bin", "timeshift", "rewind", "pollgap"},
	"asm":  {"tgp", "bin"},
}

// modeOf is the first mode, in the order dump, trc, asm, whose flag holds
// a value; "" when none does.
func modeOf() string {
	for _, m := range []string{"dump", "trc", "asm"} {
		if flag.Lookup(m).Value.String() != "" {
			return m
		}
	}
	return ""
}

// checkFlags refuses, by name, the first explicitly set flag that mode
// does not read.
func checkFlags(mode string) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != mode && !slices.Contains(reads[mode], f.Name) {
			err = fmt.Errorf("-%s does not apply to -%s", f.Name, mode)
		}
	})
	return err
}

func emit(p *core.Program, tgpOut, binOut string) {
	if tgpOut != "" {
		f, err := os.Create(tgpOut)
		tool.Fail(err)
		tool.Fail(p.Format(f))
		tool.Fail(f.Close())
	}
	if binOut != "" {
		f, err := os.Create(binOut)
		tool.Fail(err)
		tool.Fail(p.WriteBin(f))
		tool.Fail(f.Close())
	}
	if tgpOut == "" && binOut == "" {
		tool.Fail(p.Format(os.Stdout))
	}
}
