// Package mem provides the system slaves of the MPARM-like platform:
// word-addressed RAM (used for both private and shared memories) and the
// hardware test-and-set semaphore bank that drives the paper's reactive
// polling scenarios (Figure 2(b), Figure 3).
package mem

import (
	"fmt"
	"math/bits"
	"sync"

	"noctg/internal/ocp"
)

// RAM is a word-addressed memory slave with a configurable access time.
// Private memories and the shared memory differ only in the address range
// the platform maps them at and in cacheability.
//
// The backing store is taken on the first write and every word reads as
// zero until then; Clear hands it back, wiped, for the next memory to
// take. A platform maps 128 KiB per core plus the shared memory, and a
// campaign builds one platform per point: allocating and collecting that
// store afresh each time was most of a sweep's allocation volume and,
// through it, of its garbage collections.
type RAM struct {
	base  uint32
	size  int      // words
	words []uint32 // nil until the first write
	// waitStates is the intrinsic per-access service time in cycles
	// (the paper's "slave access time"). Bursts pay it once per beat.
	waitStates uint64
	name       string
}

// NewRAM builds a RAM of size bytes mapped at base. Size and base must be
// word aligned.
func NewRAM(name string, base, size uint32, waitStates uint64) *RAM {
	if base%4 != 0 || size%4 != 0 || size == 0 {
		panic(fmt.Sprintf("mem: RAM %s base/size must be word aligned and non-zero", name))
	}
	return &RAM{base: base, size: int(size / 4), waitStates: waitStates, name: name}
}

// stores holds wiped backing stores by capacity class: class c keeps
// slices of at least 1<<c words. Everything in a pool is all zeros.
var stores [33]sync.Pool

// store returns the backing store, taking a pooled or a fresh one on first
// use. A request looks in the class that covers it and a returned store
// goes to the class it fills, so power-of-two sizes — all the platform
// maps — are reused exactly and others only by smaller requests.
func (r *RAM) store() []uint32 {
	if r.words == nil {
		if w, ok := stores[bits.Len(uint(r.size-1))].Get().(*[]uint32); ok {
			r.words = (*w)[:r.size]
		} else {
			r.words = make([]uint32, r.size)
		}
	}
	return r.words
}

// Name returns the memory's diagnostic name.
func (r *RAM) Name() string { return r.name }

// Range returns the address range the RAM occupies.
func (r *RAM) Range() ocp.AddrRange {
	return ocp.AddrRange{Base: r.base, Size: uint32(r.size * 4)}
}

// AccessCycles implements ocp.Slave.
func (r *RAM) AccessCycles(req *ocp.Request) uint64 {
	return r.waitStates * uint64(req.Burst)
}

// Perform implements ocp.Slave.
func (r *RAM) Perform(req *ocp.Request) ocp.Response {
	return r.PerformInto(req, make([]uint32, 0, req.Burst))
}

// PerformInto implements ocp.BufferedSlave: read data is appended to dst
// instead of freshly allocated, so interconnects can reuse one buffer per
// port across transactions.
func (r *RAM) PerformInto(req *ocp.Request, dst []uint32) ocp.Response {
	idx, ok := r.index(req.Addr)
	if !ok || idx+req.Burst > r.size {
		return ocp.Response{Err: true}
	}
	switch {
	case req.Cmd.IsRead():
		if r.words == nil {
			for range req.Burst {
				dst = append(dst, 0)
			}
			return ocp.Response{Data: dst}
		}
		return ocp.Response{Data: append(dst, r.words[idx:idx+req.Burst]...)}
	case req.Cmd.IsWrite():
		copy(r.store()[idx:idx+req.Burst], req.Data)
		return ocp.Response{}
	}
	return ocp.Response{Err: true}
}

// NextWake implements sim.Sleeper: a RAM is purely reactive (it acts only
// inside a fabric-invoked Perform), so it never needs a clock tick of its
// own under any kernel — the invoking fabric is awake whenever an access
// is pending, which is all the event kernel requires.
func (r *RAM) NextWake(uint64) uint64 { return wakeNever }

// wakeNever mirrors sim.WakeNever without importing sim: the passive slaves
// in this package implement the Sleeper method set but are not engine
// devices.
const wakeNever = ^uint64(0)

// PeekWord reads a word directly, bypassing timing — used by program
// loaders, test assertions and functional validation only.
func (r *RAM) PeekWord(addr uint32) uint32 {
	idx, ok := r.index(addr)
	if !ok {
		panic(fmt.Sprintf("mem: PeekWord %#08x outside %s %v", addr, r.name, r.Range()))
	}
	if r.words == nil {
		return 0
	}
	return r.words[idx]
}

// PokeWord writes a word directly, bypassing timing.
func (r *RAM) PokeWord(addr uint32, v uint32) {
	idx, ok := r.index(addr)
	if !ok {
		panic(fmt.Sprintf("mem: PokeWord %#08x outside %s %v", addr, r.name, r.Range()))
	}
	r.store()[idx] = v
}

// LoadWords copies words into memory starting at addr (loader path).
func (r *RAM) LoadWords(addr uint32, words []uint32) {
	idx, ok := r.index(addr)
	if !ok || idx+len(words) > r.size {
		panic(fmt.Sprintf("mem: LoadWords %#08x+%d outside %s %v", addr, len(words), r.name, r.Range()))
	}
	copy(r.store()[idx:], words)
}

// Clear zeroes the whole memory: the backing store is wiped and handed
// back for the next memory to take, and the RAM reads as zeros until it is
// written again. A runner that is done with a platform clears its memories
// so the next platform it builds reuses their stores.
func (r *RAM) Clear() {
	if r.words == nil {
		return
	}
	w := r.words[:cap(r.words)]
	clear(w)
	stores[bits.Len(uint(len(w)))-1].Put(&w)
	r.words = nil
}

func (r *RAM) index(addr uint32) (int, bool) {
	if addr < r.base || addr%4 != 0 {
		return 0, false
	}
	idx := int((addr - r.base) / 4)
	if idx >= r.size {
		return 0, false
	}
	return idx, true
}

var _ ocp.Slave = (*RAM)(nil)
var _ ocp.BufferedSlave = (*RAM)(nil)
