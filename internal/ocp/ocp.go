// Package ocp models the OCP-like socket between IP cores (or traffic
// generators) and the interconnect. As in the paper, the OCP boundary is the
// contract that lets processor models and TG devices be exchanged freely
// (Figure 1): anything that drives a MasterPort can sit on any interconnect
// that provides one.
//
// The protocol modelled here is the subset the paper's TG needs: single and
// burst reads and writes, a request/accept handshake, and a response phase
// for reads. Writes are posted — the master is released as soon as the
// interconnect accepts the request (Figure 2(a) semantics).
package ocp

import (
	"fmt"

	"noctg/internal/sim"
)

// Cmd enumerates OCP master commands (Table 1 of the paper issues exactly
// these four).
type Cmd uint8

const (
	// None is the idle command; it never appears in a valid Request.
	None Cmd = iota
	// Read is a single-word blocking read.
	Read
	// Write is a single-word posted write.
	Write
	// BurstRead is a multi-beat blocking read of consecutive words.
	BurstRead
	// BurstWrite is a multi-beat posted write of consecutive words.
	BurstWrite
)

// String returns the trace mnemonic for the command (matching the .trc file
// format).
func (c Cmd) String() string {
	switch c {
	case None:
		return "NONE"
	case Read:
		return "RD"
	case Write:
		return "WR"
	case BurstRead:
		return "BRD"
	case BurstWrite:
		return "BWR"
	}
	return fmt.Sprintf("Cmd(%d)", uint8(c))
}

// IsRead reports whether the command expects a data response.
func (c Cmd) IsRead() bool { return c == Read || c == BurstRead }

// IsWrite reports whether the command carries write data.
func (c Cmd) IsWrite() bool { return c == Write || c == BurstWrite }

// Request is one OCP transaction request as presented by a master.
type Request struct {
	// Cmd is the transfer type.
	Cmd Cmd
	// Addr is the byte address of the first word. Must be word aligned.
	Addr uint32
	// Burst is the number of beats; 1 for single transfers.
	Burst int
	// Data holds the write payload (len == Burst) for write commands and is
	// nil for reads.
	Data []uint32
	// MasterID identifies the issuing master (for arbitration and tracing).
	MasterID int
}

// Validate checks structural invariants of the request.
func (r *Request) Validate() error {
	switch r.Cmd {
	case Read, Write:
		if r.Burst != 1 {
			return fmt.Errorf("ocp: %v burst must be 1, got %d", r.Cmd, r.Burst)
		}
	case BurstRead, BurstWrite:
		if r.Burst < 1 {
			return fmt.Errorf("ocp: %v burst must be >= 1, got %d", r.Cmd, r.Burst)
		}
	default:
		return fmt.Errorf("ocp: invalid command %v", r.Cmd)
	}
	if r.Addr%4 != 0 {
		return fmt.Errorf("ocp: address %#08x not word aligned", r.Addr)
	}
	if r.Cmd.IsWrite() && len(r.Data) != r.Burst {
		return fmt.Errorf("ocp: write payload has %d words, burst is %d", len(r.Data), r.Burst)
	}
	if r.Cmd.IsRead() && r.Data != nil {
		return fmt.Errorf("ocp: read request carries data")
	}
	return nil
}

// Response is the slave's answer to a read request (writes are posted and
// produce no response).
type Response struct {
	// Data holds one word per beat of the originating burst.
	Data []uint32
	// Err is set when the address decoded to no slave or the slave faulted.
	Err bool
}

// MasterPort is the master-side connection point an interconnect provides.
// Masters operate it strictly within their Tick: at most one transaction may
// be outstanding per port (the paper's cores are in-order, single-pipeline).
type MasterPort interface {
	// TryRequest presents req this cycle. It returns true when the
	// interconnect accepts (latches) the request; the master must re-present
	// the same request on subsequent cycles until accepted. The request's
	// Data slice must stay untouched from the first presentation until
	// acceptance; interconnects copy the payload into their own storage no
	// later than acceptance, so after TryRequest returns true the master may
	// reuse the buffer.
	TryRequest(req *Request) bool
	// TakeResponse returns the pending response for this master, if one has
	// been delivered by the current cycle, consuming it. The returned
	// Response (and its Data slice) may be backed by port-owned storage that
	// is reused by the next transaction: callers must copy out anything they
	// need before operating the port again.
	TakeResponse() (*Response, bool)
	// Busy reports whether a previously accepted transaction is still in
	// flight (posted writes clear as soon as they are accepted).
	Busy() bool
}

// Deprecated: WakeHinter is implemented by no port and read by no master:
// ports wake their blocked masters instead (see PassWaker). It remains
// only because the benchmark's trace shim still names it.
type WakeHinter interface {
	WakeHint(now uint64) uint64
}

// PassWaker hands a master's engine wake handle to the fabric port behind
// port, looking through Monitors, and reports whether the port took it. A
// port that takes it (implements sim.WakeSink) calls WakeAt at every change
// of its answers — the accept and the response becoming takeable — so its
// blocked master may sleep with sim.WakeNever. Any other port leaves its
// master to poll every blocked cycle. Handshake.SetWaker calls it.
func PassWaker(port MasterPort, w sim.Waker) bool {
	for m, ok := port.(*Monitor); ok; m, ok = port.(*Monitor) {
		port = m.port
	}
	ws, ok := port.(sim.WakeSink)
	if ok {
		ws.SetWaker(w)
	}
	return ok
}

// Slave is the slave-side target invoked by an interconnect once a
// transaction wins arbitration and traverses the fabric.
type Slave interface {
	// AccessCycles returns the intrinsic service time in cycles for req
	// (the paper's "slave access time"), excluding interconnect transport.
	AccessCycles(req *Request) uint64
	// Perform applies the request's side effects and, for reads, returns
	// the data. It is called exactly once per accepted transaction.
	Perform(req *Request) Response
}

// BufferedSlave is optionally implemented by slaves that can serve reads
// into a caller-provided buffer, sparing the per-transaction Data allocation
// of Perform. dst arrives with length 0 and whatever capacity the caller has
// accumulated; the returned Response's Data must be the result of appending
// the read words to dst (writes and errors return Data nil as usual).
// Interconnects own the buffer lifecycle: they pass storage whose lifetime
// covers the response's delivery, and grow it across transactions.
type BufferedSlave interface {
	PerformInto(req *Request, dst []uint32) Response
}

// PerformBuffered serves req on s, reusing buf for read data when the slave
// supports buffered operation and falling back to Perform otherwise. It
// returns the response together with the (possibly grown) buffer, which the
// caller keeps for the next transaction. The returned response's Data
// aliases the returned buffer for buffered slaves — the caller must not
// start another transaction on the same buffer until the response has been
// consumed.
func PerformBuffered(s Slave, req *Request, buf []uint32) (Response, []uint32) {
	if bs, ok := s.(BufferedSlave); ok {
		resp := bs.PerformInto(req, buf[:0])
		if cap(resp.Data) > cap(buf) {
			buf = resp.Data[:0]
		}
		return resp, buf
	}
	return s.Perform(req), buf
}

// AddrRange is a half-open byte-address range [Base, Base+Size).
type AddrRange struct {
	Base uint32
	Size uint32
}

// Contains reports whether addr falls inside the range.
func (r AddrRange) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// Overlaps reports whether the two ranges intersect.
func (r AddrRange) Overlaps(o AddrRange) bool {
	return r.Base < o.Base+o.Size && o.Base < r.Base+r.Size
}

// End returns the first address past the range.
func (r AddrRange) End() uint32 { return r.Base + r.Size }

func (r AddrRange) String() string {
	return fmt.Sprintf("[%#08x,%#08x)", r.Base, r.End())
}
