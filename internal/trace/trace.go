// Package trace implements the .trc on-disk format for OCP communication
// traces, following the paper's Figure 3(a): one line per request with a
// nanosecond timestamp, one RSP line per read response. Each line also
// records the request-acceptance time, which the translator needs to
// compute interconnect-independent idle gaps after posted writes.
//
// Timestamps are stored in nanoseconds (cycle × clock period), exactly as
// the paper prints them; the header records the clock so parsing recovers
// cycles losslessly.
//
// A Trace's events are an ocp.Log: the recording monitor's own chunks,
// never copied, under the storage contract of the ocp package doc (# The
// event log).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"noctg/internal/ocp"
	"noctg/internal/sim"
)

// Trace is the recorded communication of one master OCP interface.
type Trace struct {
	// MasterID identifies the traced core.
	MasterID int
	// Clock is the traced core's clock (5 ns in the paper's examples).
	Clock sim.Clock
	// Log holds the transactions in issue order, timestamps in cycles.
	ocp.Log
}

// New builds a trace on log: a monitor's (ocp.Monitor.Log) or a hand-built
// slice's (ocp.LogOf).
func New(masterID int, clock sim.Clock, log ocp.Log) *Trace {
	if clock.PeriodNS == 0 {
		clock = sim.DefaultClock
	}
	return &Trace{MasterID: masterID, Clock: clock, Log: log}
}

// Span returns the completion time (cycles) of the last event, or zero.
func (t *Trace) Span() uint64 {
	if t.Len() == 0 {
		return 0
	}
	return t.At(t.Len() - 1).Done()
}

// Write renders the trace in .trc format, appending the lines into one
// reused buffer that is flushed to w every 4 KiB or so.
func (t *Trace) Write(w io.Writer) error {
	b := fmt.Appendf(make([]byte, 0, 8<<10), "; noctg trace v1\n; master %d clockns %d\n", t.MasterID, t.Clock.PeriodNS)
	ns := t.Clock.NS
	for i := range t.Len() {
		e := t.At(i)
		b = appendHex(append(b, e.Cmd.String()...), e.Addr)
		switch e.Cmd {
		case ocp.Read:
		case ocp.Write:
			b = appendHex(b, e.Data[0])
		case ocp.BurstRead:
			b = strconv.AppendInt(append(b, " +"...), int64(e.Burst), 10)
		case ocp.BurstWrite:
			b = appendHex(strconv.AppendInt(append(b, " +"...), int64(e.Burst), 10), e.Data...)
		default:
			return fmt.Errorf("trace: event %d has invalid command %v", i, e.Cmd)
		}
		b = appendNS(appendNS(b, " @", ns(e.Assert)), " acc@", ns(e.Accept))
		if e.HasResp {
			b = appendNS(appendHex(append(b, "\nRSP"...), e.Data...), " @", ns(e.Resp))
		}
		if b = append(b, '\n'); len(b) >= 4<<10 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// Size returns the number of bytes Write renders, computed without
// rendering: hex words are fixed width, and each decimal's width is its
// digit count.
func (t *Trace) Size() (int, error) {
	n := len("; noctg trace v1\n; master  clockns \n") + intLen(int64(t.MasterID)) + uintLen(t.Clock.PeriodNS)
	const hex = len(" 0x00000000")
	ns := t.Clock.NS
	for i := range t.Len() {
		e := t.At(i)
		n += len(e.Cmd.String()) + hex
		switch e.Cmd {
		case ocp.Read:
		case ocp.Write:
			n += hex
		case ocp.BurstRead:
			n += len(" +") + intLen(int64(e.Burst))
		case ocp.BurstWrite:
			n += len(" +") + intLen(int64(e.Burst)) + hex*len(e.Data)
		default:
			return 0, fmt.Errorf("trace: event %d has invalid command %v", i, e.Cmd)
		}
		n += len(" @ns acc@ns\n") + uintLen(ns(e.Assert)) + uintLen(ns(e.Accept))
		if e.HasResp {
			n += len("\nRSP @ns") + hex*len(e.Data) + uintLen(ns(e.Resp))
		}
	}
	return n, nil
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// intLen is the width of v in decimal, sign included.
func intLen(v int64) int {
	if v < 0 {
		return 1 + uintLen(uint64(-v))
	}
	return uintLen(uint64(v))
}

// appendHex appends each word as fmt's " 0x%08x" renders it.
func appendHex(b []byte, words ...uint32) []byte {
	for _, v := range words {
		b = append(b, " 0x"...)
		for shift := 28; shift >= 0; shift -= 4 {
			b = append(b, "0123456789abcdef"[v>>shift&0xf])
		}
	}
	return b
}

// appendNS appends prefix and the timestamp v as "<decimal>ns".
func appendNS(b []byte, prefix string, v uint64) []byte {
	return append(strconv.AppendUint(append(b, prefix...), v, 10), "ns"...)
}

// Parse reads a .trc stream.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	t := &Trace{Clock: sim.DefaultClock}
	lineNo := 0
	var cur *ocp.Event
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			parseHeader(line, t)
			continue
		}
		fields := strings.Fields(line)
		kind := fields[0]
		if kind == "RSP" {
			if cur == nil || !cur.Cmd.IsRead() || cur.HasResp {
				return nil, fmt.Errorf("trace: line %d: RSP without pending read", lineNo)
			}
			var data []uint32
			var respNS uint64
			for _, f := range fields[1:] {
				switch {
				case strings.HasPrefix(f, "@"):
					v, err := parseNS(f[1:])
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
					}
					respNS = v
				default:
					v, err := parseHex(f)
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
					}
					data = append(data, v)
				}
			}
			cur.Data = data
			cur.Resp = t.Clock.Cycles(respNS)
			cur.HasResp = true
			cur = nil
			continue
		}
		ev := ocp.Event{Burst: 1}
		switch kind {
		case "RD":
			ev.Cmd = ocp.Read
		case "BRD":
			ev.Cmd = ocp.BurstRead
		case "WR":
			ev.Cmd = ocp.Write
		case "BWR":
			ev.Cmd = ocp.BurstWrite
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, kind)
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: missing address", lineNo)
		}
		addr, err := parseHex(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		ev.Addr = addr
		for _, f := range fields[2:] {
			switch {
			case strings.HasPrefix(f, "+"):
				n, err := strconv.Atoi(f[1:])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("trace: line %d: bad burst %q", lineNo, f)
				}
				ev.Burst = n
			case strings.HasPrefix(f, "acc@"):
				v, err := parseNS(f[4:])
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
				}
				ev.Accept = t.Clock.Cycles(v)
			case strings.HasPrefix(f, "@"):
				v, err := parseNS(f[1:])
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
				}
				ev.Assert = t.Clock.Cycles(v)
			default:
				v, err := parseHex(f)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
				}
				ev.Data = append(ev.Data, v)
			}
		}
		if ev.Cmd.IsWrite() && len(ev.Data) != ev.Burst {
			return nil, fmt.Errorf("trace: line %d: write burst %d with %d data words", lineNo, ev.Burst, len(ev.Data))
		}
		if e := t.Append(ev); ev.Cmd.IsRead() {
			cur = e
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("trace: read at cycle %d has no response", cur.Assert)
	}
	return t, nil
}

func parseHeader(line string, t *Trace) {
	fields := strings.Fields(strings.TrimPrefix(line, ";"))
	for i := 0; i+1 < len(fields); i++ {
		switch fields[i] {
		case "master":
			if v, err := strconv.Atoi(fields[i+1]); err == nil {
				t.MasterID = v
			}
		case "clockns":
			if v, err := strconv.ParseUint(fields[i+1], 10, 64); err == nil && v > 0 {
				t.Clock = sim.Clock{PeriodNS: v}
			}
		}
	}
}

func parseNS(s string) (uint64, error) {
	s = strings.TrimSuffix(s, "ns")
	return strconv.ParseUint(s, 10, 64)
}

func parseHex(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return uint32(v), nil
}

// Validate checks trace invariants: chronological order, accept ≥ assert,
// responses after accept.
func (t *Trace) Validate() error {
	var prev uint64
	for i := range t.Len() {
		e := t.At(i)
		if e.Accept < e.Assert {
			return fmt.Errorf("trace: event %d accepted (%d) before asserted (%d)", i, e.Accept, e.Assert)
		}
		if e.HasResp && e.Resp < e.Accept {
			return fmt.Errorf("trace: event %d response (%d) before acceptance (%d)", i, e.Resp, e.Accept)
		}
		if e.Assert < prev {
			return fmt.Errorf("trace: event %d asserted (%d) before previous completion (%d)", i, e.Assert, prev)
		}
		prev = e.Done()
	}
	return nil
}
