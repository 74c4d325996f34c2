package cache

import (
	"fmt"

	"noctg/internal/ocp"
)

// OpKind distinguishes the three memory operations a core performs.
type OpKind int

const (
	// OpFetch is an instruction fetch (through the I-cache when cacheable).
	OpFetch OpKind = iota
	// OpLoad is a data load (through the D-cache when cacheable).
	OpLoad
	// OpStore is a data store (write-through, posted).
	OpStore
)

type muState int

const (
	muIdle  muState = iota
	muHit           // resolves on the next tick (1-cycle cache access)
	muIssue         // an OCP request begun, first presented on the next tick
	muBus           // an OCP transaction in flight
)

// MemUnit funnels a core's instruction fetches and data accesses onto its
// single OCP master port, implementing the cache policies:
//
//   - cacheable fetch/load: 1-cycle hit, or a burst line refill;
//   - cacheable store: write-through (update line if resident) + posted write;
//   - non-cacheable access: single-word OCP read/write (shared memory and
//     the semaphore bank must never be cached — there is no coherence).
//
// The unit handles one operation at a time (the cores are in-order,
// single-pipeline, exactly like the paper's ARM masters). It is driven by
// the owning core's Tick, not registered with the engine directly, and the
// core holds it in a named field and hands it the engine's waker itself.
type MemUnit struct {
	ocp.Handshake
	icache    *Cache
	dcache    *Cache
	cacheable []ocp.AddrRange
	// lastRange is the cacheable range that matched last (empty until one
	// has): a core's fetches and loads stay in its private memory, so the
	// common case skips the scan, as amba.Bus.decode does with its
	// lastBind.
	lastRange ocp.AddrRange

	state   muState
	op      OpKind
	addr    uint32
	cached  bool
	stBuf   [1]uint32 // reusable posted-write payload (copied at acceptance)
	result  uint32
	done    bool
	faulted bool
}

// NewMemUnit builds a memory unit over port with the given caches (either
// may be nil to disable caching for that stream) and cacheable ranges.
func NewMemUnit(port ocp.MasterPort, icache, dcache *Cache, cacheable []ocp.AddrRange) *MemUnit {
	if port == nil {
		panic("cache: NewMemUnit requires a port")
	}
	return &MemUnit{Handshake: ocp.NewHandshake(port), icache: icache, dcache: dcache, cacheable: cacheable}
}

// ICache returns the instruction cache (may be nil).
func (m *MemUnit) ICache() *Cache { return m.icache }

// DCache returns the data cache (may be nil).
func (m *MemUnit) DCache() *Cache { return m.dcache }

// Cacheable reports whether addr falls in a cacheable range.
func (m *MemUnit) Cacheable(addr uint32) bool {
	if m.lastRange.Contains(addr) {
		return true
	}
	for _, r := range m.cacheable {
		if r.Contains(addr) {
			m.lastRange = r
			return true
		}
	}
	return false
}

// Busy reports whether an operation is in progress.
func (m *MemUnit) Busy() bool { return m.state != muIdle }

// Local reports whether the next Tick stays off the port: the unit is idle
// or resolving a cache hit.
func (m *MemUnit) Local() bool { return m.state < muIssue }

// NextWake reports the first cycle from now at which the unit needs its
// Tick. A request the port has seen sleeps as the handshake does; any
// other state, a request begun but not yet presented included, needs the
// tick at now.
func (m *MemUnit) NextWake(now uint64) uint64 {
	if m.state == muBus {
		return m.BlockedWake(now)
	}
	return now
}

// Faulted reports whether a bus error terminated an operation.
func (m *MemUnit) Faulted() bool { return m.faulted }

// Begin starts a memory operation. The unit must be idle.
func (m *MemUnit) Begin(op OpKind, addr uint32, data uint32) {
	if m.state != muIdle {
		panic("cache: MemUnit.Begin while busy")
	}
	if addr%4 != 0 {
		panic(fmt.Sprintf("cache: unaligned access %#08x", addr))
	}
	m.op = op
	m.addr = addr
	m.done = false
	m.cached = m.Cacheable(addr)

	c := m.cacheFor(op)
	switch op {
	case OpFetch, OpLoad:
		if m.cached && c != nil {
			if v, ok := c.Lookup(addr); ok {
				m.result = v
				m.state = muHit
				return
			}
			// Miss: burst refill of the whole line.
			m.Start(ocp.Request{Cmd: ocp.BurstRead, Addr: c.LineBase(addr), Burst: c.Config().WordsPerLine})
			m.state = muIssue
			return
		}
		m.Start(ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1})
		m.state = muIssue
	case OpStore:
		if m.cached && m.dcache != nil {
			m.dcache.Update(addr, data)
		}
		m.stBuf[0] = data
		m.Start(ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1, Data: m.stBuf[:1]})
		m.state = muIssue
	}
}

// TakeHit takes the word of a cache hit begun in the previous cycle,
// exactly as that cycle's Tick and TakeResult would; it reports false,
// changing nothing, when no hit is pending.
func (m *MemUnit) TakeHit() (uint32, bool) {
	if m.state != muHit {
		return 0, false
	}
	m.state = muIdle
	return m.result, true
}

func (m *MemUnit) cacheFor(op OpKind) *Cache {
	if op == OpFetch {
		return m.icache
	}
	return m.dcache
}

// Tick advances the in-flight operation by one cycle. The owning core must
// call it once per cycle before inspecting TakeResult.
func (m *MemUnit) Tick(cycle uint64) {
	switch m.state {
	case muHit:
		m.done = true
		m.state = muIdle
	case muIssue, muBus:
		m.step()
	}
}

// step advances the transaction in flight; Tick stays small enough to
// inline into the core's, so only a cycle with the bus in use pays a call.
func (m *MemUnit) step() {
	m.state = muBus
	_, resp, done := m.Step()
	if !done {
		return
	}
	m.done = true
	m.state = muIdle
	switch c := m.cacheFor(m.op); {
	case resp == nil:
		// Posted write: complete at acceptance.
	case resp.Err:
		m.faulted = true
	case m.cached && c != nil:
		// A line refill: only a cacheable miss goes to the bus.
		c.Fill(c.LineBase(m.addr), resp.Data)
		_, word, _ := c.index(m.addr)
		m.result = resp.Data[word]
	default:
		m.result = resp.Data[0]
	}
}

// TakeResult returns the completed operation's value (loads/fetches) once
// per operation. Stores complete with value 0.
func (m *MemUnit) TakeResult() (uint32, bool) {
	if !m.done {
		return 0, false
	}
	m.done = false
	return m.result, true
}
