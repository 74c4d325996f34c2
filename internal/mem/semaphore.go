package mem

import "noctg/internal/ocp"

// SemBank is the hardware semaphore slave. Its semantics follow the paper's
// Figure 2(b)/Figure 3 polling protocol:
//
//   - A read of a free semaphore returns 1 ("unblocked") and atomically
//     locks it (test-and-set on read).
//   - A read of a held semaphore returns 0 (the poll "Fail").
//   - A write of a non-zero value unlocks the semaphore; a write of zero
//     locks it unconditionally (rarely useful, but keeps writes total).
//
// Masters therefore acquire by polling `RD` until the value 1 comes back,
// and release with `WR 1` — exactly the loop the translator emits as
// `Semchk: Read / If rdreg != tempreg then Semchk`.
type SemBank struct {
	base       uint32
	free       []bool
	waitStates uint64
	name       string

	acquires uint64
	fails    uint64
	releases uint64
}

// NewSemBank builds a bank of n word-addressed semaphores at base, all
// initially free.
func NewSemBank(name string, base uint32, n int, waitStates uint64) *SemBank {
	if base%4 != 0 || n <= 0 {
		panic("mem: SemBank base must be aligned and n positive")
	}
	free := make([]bool, n)
	for i := range free {
		free[i] = true
	}
	return &SemBank{base: base, free: free, waitStates: waitStates, name: name}
}

// Range returns the address range the bank occupies.
func (s *SemBank) Range() ocp.AddrRange {
	return ocp.AddrRange{Base: s.base, Size: uint32(len(s.free) * 4)}
}

// AccessCycles implements ocp.Slave.
func (s *SemBank) AccessCycles(req *ocp.Request) uint64 {
	return s.waitStates * uint64(req.Burst)
}

// Perform implements ocp.Slave. Burst accesses to the semaphore bank are
// rejected: test-and-set is a single-word operation. Semaphore polling is
// the hottest read path of the reactive scenarios (Figure 2(b)/Figure 3),
// so poll responses append to dst and must not allocate.
func (s *SemBank) Perform(req *ocp.Request, dst []uint32) ocp.Response {
	if req.Burst != 1 {
		return ocp.Response{Err: true}
	}
	idx, ok := s.index(req.Addr)
	if !ok {
		return ocp.Response{Err: true}
	}
	switch req.Cmd {
	case ocp.Read:
		if s.free[idx] {
			s.free[idx] = false
			s.acquires++
			return ocp.Response{Data: append(dst, 1)}
		}
		s.fails++
		return ocp.Response{Data: append(dst, 0)}
	case ocp.Write:
		if req.Data[0] != 0 {
			s.free[idx] = true
			s.releases++
		} else {
			s.free[idx] = false
		}
		return ocp.Response{}
	}
	return ocp.Response{Err: true}
}

// Stats returns (successful acquires, failed polls, releases).
func (s *SemBank) Stats() (acquires, fails, releases uint64) {
	return s.acquires, s.fails, s.releases
}

func (s *SemBank) index(addr uint32) (int, bool) {
	if addr < s.base || addr%4 != 0 {
		return 0, false
	}
	idx := int((addr - s.base) / 4)
	if idx >= len(s.free) {
		return 0, false
	}
	return idx, true
}

var _ ocp.Slave = (*SemBank)(nil)
