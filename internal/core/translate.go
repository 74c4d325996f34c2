package core

import (
	"fmt"
	"slices"
	"sort"

	"noctg/internal/ocp"
	"noctg/internal/trace"
)

// PollRange declares one pollable address range and the traced core's
// polling period for it.
type PollRange struct {
	// Range is the pollable address window.
	Range ocp.AddrRange
	// Gap is the core's response→re-poll period in cycles for loops on
	// this range. When zero the translator measures it from the trace,
	// falling back to DefaultPollGap for single-poll runs — but a fixed,
	// platform-supplied Gap is required for translated programs to be
	// byte-identical across interconnects (a lucky first-try poll on one
	// fabric leaves nothing to measure, while the other fabric measures).
	Gap uint64
}

// TranslateConfig parameterises trace→program translation.
type TranslateConfig struct {
	// PollRanges are the address ranges the translator knows to be
	// pollable (the hardware semaphore bank and any registered shared flag
	// words — the paper's "knowledge of what addressing ranges represent
	// pollable resources"). Reads falling in these ranges collapse into
	// reactive poll loops.
	PollRanges []PollRange
	// DefaultPollGap is the final fallback polling period (cycles).
	DefaultPollGap uint64
	// RecognizePolls enables poll-loop collapsing. Disabling it yields the
	// non-reactive "time-shifting" baseline of Section 3, which replays
	// the recorded number of polls verbatim.
	RecognizePolls bool
	// Rewind ends the program with Jump(start) instead of Halt — the
	// paper's free-running mode for NoC test chips.
	Rewind bool
}

// DefaultTranslateConfig returns the reactive configuration.
func DefaultTranslateConfig(pollRanges []PollRange) TranslateConfig {
	return TranslateConfig{
		PollRanges:     pollRanges,
		DefaultPollGap: DefaultPollGap,
		RecognizePolls: true,
	}
}

// DefaultPollGap is the fallback response→re-poll period.
const DefaultPollGap = 8

// TranslateStats reports translation fidelity information.
type TranslateStats struct {
	// Events is the number of trace events consumed.
	Events int
	// PollLoops is the number of poll runs collapsed into loops.
	PollLoops int
	// PollReadsCollapsed counts trace reads absorbed by those loops.
	PollReadsCollapsed int
	// ClampedCycles accumulates idle cycles that could not be inserted
	// because register set-up overheads exceeded the recorded gap (the
	// paper's "minimal timing mismatches caused by the conversion").
	ClampedCycles uint64
}

// Translate converts a collected trace into a TG program (Section 5).
//
// Idle gaps are measured relative to the previous transaction's completion
// (response for blocking reads, acceptance for posted writes), which is
// core compute time and therefore interconnect-independent; reads in poll
// ranges are collapsed into `Semchk: Read / If rdreg != tempreg then
// Semchk` loops whose exit value is the final recorded response. Identical
// applications traced on different interconnects therefore translate to
// identical programs — the paper's Section 6 validation.
func Translate(tr *trace.Trace, cfg TranslateConfig) (*Program, *TranslateStats, error) {
	return translate(tr, cfg, make([]Inst, 0, instEstimate(tr.Len())))
}

// TranslateAll translates each trace with cfg and returns the programs and
// their summed stats. The translations emit through one buffer, sized for
// the longest trace, and each program is copied out at its exact length,
// so a platform's masters share one estimate's slack.
func TranslateAll(traces []*trace.Trace, cfg TranslateConfig) ([]*Program, TranslateStats, error) {
	var agg TranslateStats
	longest := 0
	for _, tr := range traces {
		longest = max(longest, tr.Len())
	}
	buf := make([]Inst, 0, instEstimate(longest))
	progs := make([]*Program, len(traces))
	for i, tr := range traces {
		p, stats, err := translate(tr, cfg, buf)
		if err != nil {
			return nil, agg, fmt.Errorf("master %d: %w", i, err)
		}
		buf = p.Insts[:0]
		p.Insts = slices.Clone(p.Insts)
		progs[i] = p
		agg.Events += stats.Events
		agg.PollLoops += stats.PollLoops
		agg.PollReadsCollapsed += stats.PollReadsCollapsed
		agg.ClampedCycles += stats.ClampedCycles
	}
	return progs, agg, nil
}

// instEstimate sizes the instructions of a trace of n events: an event
// becomes its command plus at most an Idle and the register set-up it
// needs, and the paper's benchmarks translate at up to 3.3 instructions
// per event, so 3.5 sizes a program once (append still grows past it).
func instEstimate(n int) int { return n*7/2 + 1 }

// translate emits tr's program into buf, which it may grow.
func translate(tr *trace.Trace, cfg TranslateConfig, buf []Inst) (*Program, *TranslateStats, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.DefaultPollGap == 0 {
		cfg.DefaultPollGap = DefaultPollGap
	}
	t := &translator{
		cfg:   cfg,
		prog:  NewProgram(tr.MasterID, 0),
		stats: &TranslateStats{Events: tr.Len()},
	}
	for _, r := range []struct {
		name string
		idx  *uint8
	}{{"addr", &t.addrReg}, {"data", &t.dataReg}, {"tempreg", &t.tempReg}} {
		i, err := t.prog.AddReg(r.name, 0)
		if err != nil {
			return nil, nil, err
		}
		*r.idx = uint8(i)
	}
	t.prog.Labels["start"] = 0

	events := &tr.Log
	t.prog.Insts = buf[:0]
	for i := 0; i < events.Len(); {
		e := events.At(i)
		if e.Cmd == ocp.Read && cfg.RecognizePolls && t.pollable(e.Addr) {
			i = t.emitPollCluster(events, i)
			continue
		}
		t.emitEvent(e)
		i++
	}
	if cfg.Rewind {
		t.emit(Inst{Op: Jump, Imm: 0})
	} else {
		t.emit(Inst{Op: Halt})
	}
	if err := t.prog.Validate(); err != nil {
		return nil, nil, err
	}
	return t.prog, t.stats, nil
}

type translator struct {
	cfg   TranslateConfig
	prog  *Program
	stats *TranslateStats

	addrReg, dataReg, tempReg uint8
	addrValid                 bool
	addrCur                   uint32
	dataValid                 bool
	dataCur                   uint32
	tempValid                 bool
	tempCur                   uint32

	// nextTick is the cycle at which the next emitted instruction will
	// execute, tracked on the reference timeline.
	nextTick uint64
	semSeq   int
}

func (t *translator) pollable(addr uint32) bool {
	_, ok := t.pollGapFor(addr)
	return ok
}

// pollGapFor returns the configured polling period for addr and whether
// addr is pollable at all. A zero gap means "measure from the trace".
func (t *translator) pollGapFor(addr uint32) (uint64, bool) {
	for _, r := range t.cfg.PollRanges {
		if r.Range.Contains(addr) {
			return r.Gap, true
		}
	}
	return 0, false
}

func (t *translator) emit(in Inst) { t.prog.Insts = append(t.prog.Insts, in) }

// setup emits the SetRegister instructions a command needs, returning how
// many cycles they consume.
func (t *translator) setup(addr uint32, data *uint32, temp *uint32) uint64 {
	var ops uint64
	if !t.addrValid || t.addrCur != addr {
		t.emit(Inst{Op: SetRegister, Rd: t.addrReg, Imm: addr})
		t.addrValid, t.addrCur = true, addr
		ops++
	}
	if data != nil && (!t.dataValid || t.dataCur != *data) {
		t.emit(Inst{Op: SetRegister, Rd: t.dataReg, Imm: *data})
		t.dataValid, t.dataCur = true, *data
		ops++
	}
	if temp != nil && (!t.tempValid || t.tempCur != *temp) {
		t.emit(Inst{Op: SetRegister, Rd: t.tempReg, Imm: *temp})
		t.tempValid, t.tempCur = true, *temp
		ops++
	}
	return ops
}

// fillIdle emits the Idle padding so the next command asserts at the
// recorded cycle.
func (t *translator) fillIdle(assert uint64, ops uint64) {
	target := t.nextTick + ops
	if assert > target {
		t.emit(Inst{Op: Idle, Imm: uint32(assert - target)})
	} else if assert < target {
		t.stats.ClampedCycles += target - assert
	}
}

// emitEvent translates one non-poll transaction.
func (t *translator) emitEvent(e *ocp.Event) {
	var data *uint32
	if e.Cmd.IsWrite() {
		data = &e.Data[0]
	}
	// Compute overheads without emitting yet? SetRegister emission order is
	// fixed (addr, data), and fillIdle must come after them but before the
	// command; emit setregs first, then idle, then command — the idle
	// amount depends only on the count of setregs.
	ops := t.setup(e.Addr, data, nil)
	t.fillIdle(e.Assert, ops)
	switch e.Cmd {
	case ocp.Read:
		t.emit(Inst{Op: Read, Ra: t.addrReg})
	case ocp.BurstRead:
		t.emit(Inst{Op: BurstRead, Ra: t.addrReg, Imm: uint32(e.Burst)})
	case ocp.Write:
		t.emit(Inst{Op: Write, Ra: t.addrReg, Rb: t.dataReg})
	case ocp.BurstWrite:
		t.emit(Inst{Op: BurstWrite, Ra: t.addrReg, Rb: t.dataReg, Imm: uint32(e.Burst)})
	}
	t.nextTick = e.Done() + 1
}

// emitPollCluster collapses a polling episode starting at event i into a
// single reactive loop and returns the index of the first event after it.
//
// An episode is a maximal sequence of reads to one pollable address,
// possibly interleaved with instruction-cache refills (burst reads to
// non-pollable memory): the traced core's poll loop can miss in the I-cache
// mid-loop on its first traversal. Splitting such an episode at the refill
// would produce a loop whose exit value is a *failed* poll — which can
// deadlock a test-and-set semaphore during replay and makes translated
// programs depend on racy first-poll values. Instead the refills are
// hoisted in front of one merged loop whose exit value is the episode's
// final (successful) response; all idle gaps stay measured between
// adjacent events of the original trace, so they remain
// interconnect-independent.
func (t *translator) emitPollCluster(events *ocp.Log, i int) int {
	addr := events.At(i).Addr
	polls := []*ocp.Event{events.At(i)}
	type preEvent struct {
		ev       *ocp.Event
		prevDone uint64 // completion of the event preceding it in the trace
	}
	var pres []preEvent
	straddled := map[int]bool{} // poll-gap indices that cross a refill

	j := i + 1
	for j < events.Len() {
		ev := events.At(j)
		if ev.Cmd == ocp.Read && ev.Addr == addr {
			polls = append(polls, ev)
			j++
			continue
		}
		// Absorb refills only when more polls of this address follow.
		if ev.Cmd == ocp.BurstRead && !t.pollable(ev.Addr) {
			k := j
			for k < events.Len() && events.At(k).Cmd == ocp.BurstRead && !t.pollable(events.At(k).Addr) {
				k++
			}
			if k < events.Len() && events.At(k).Cmd == ocp.Read && events.At(k).Addr == addr {
				for ; j < k; j++ {
					pres = append(pres, preEvent{ev: events.At(j), prevDone: events.At(j - 1).Done()})
				}
				straddled[len(polls)-1] = true
				continue
			}
		}
		break
	}

	t.stats.PollLoops++
	t.stats.PollReadsCollapsed += len(polls) - 1

	// Hoist the interleaved refills, timing each against the completion of
	// the event that preceded it in the original trace (core compute time,
	// so interconnect-independent).
	for _, pre := range pres {
		t.nextTick = pre.prevDone + 1
		t.emitEvent(pre.ev)
	}

	last := polls[len(polls)-1]
	want := last.Data[0]
	ops := t.setup(addr, nil, &want)
	t.fillIdle(polls[0].Assert, ops)

	// Polling period: configured per range when the platform knows it;
	// otherwise the response→re-assert spacing measured over gaps that do
	// not cross a hoisted refill, with the global default as last resort.
	pollGap, _ := t.pollGapFor(addr)
	if pollGap == 0 {
		pollGap = t.cfg.DefaultPollGap
		var gaps []uint64
		for k := 0; k+1 < len(polls); k++ {
			if !straddled[k] {
				gaps = append(gaps, polls[k+1].Assert-polls[k].Resp)
			}
		}
		if len(gaps) > 0 {
			sort.Slice(gaps, func(a, b int) bool { return gaps[a] < gaps[b] })
			pollGap = gaps[len(gaps)/2]
		}
	}

	label := fmt.Sprintf("Semchk%d", t.semSeq)
	t.semSeq++
	t.prog.Labels[label] = len(t.prog.Insts)
	loopStart := uint32(len(t.prog.Insts))
	t.emit(Inst{Op: Read, Ra: t.addrReg})
	inner := uint64(0)
	if pollGap > 2 {
		inner = pollGap - 2
		t.emit(Inst{Op: Idle, Imm: uint32(inner)})
	}
	t.emit(Inst{Op: If, Ra: RdReg, Rb: t.tempReg, Cnd: NE, Imm: loopStart})

	// Exit path: the final response is followed by the Idle and the
	// fall-through If before the next translated instruction runs.
	t.nextTick = last.Resp + 1 + inner + 1
	return j
}
