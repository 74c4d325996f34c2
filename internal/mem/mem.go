// Package mem provides the system slaves of the MPARM-like platform:
// word-addressed RAM (used for both private and shared memories) and the
// hardware test-and-set semaphore bank that drives the paper's reactive
// polling scenarios (Figure 2(b), Figure 3).
package mem

import (
	"fmt"
	"sync"

	"noctg/internal/ocp"
)

// RAM is a word-addressed memory slave with a configurable access time.
// Private memories and the shared memory differ only in the address range
// the platform maps them at and in cacheability.
//
// The store is paged: 4 KiB pages behind a page table, both taken on the
// first write that needs them, so a memory costs only the pages a run
// touches and every other word reads as zero. A platform maps 128 KiB per
// core plus the shared memory, and a traced reference run or a TG replay
// writes a few pages of each. Clear wipes the pages and hands the table,
// pages still attached, to the next memory to take one: a campaign builds
// one platform per point, and allocating and collecting the stores afresh
// each time was most of a sweep's allocation volume and, through it, of
// its garbage collections.
type RAM struct {
	base  uint32
	size  int    // words
	table *table // nil until the first write
	// waitStates is the intrinsic per-access service time in cycles
	// (the paper's "slave access time"). Bursts pay it once per beat.
	waitStates uint64
	name       string
}

// pageWords is the page size in words (4 KiB).
const pageWords = 1024

type page [pageWords]uint32

// table is a RAM's page table: entry i holds words [i·pageWords,
// (i+1)·pageWords), nil until written. A recycled table may hold wiped
// pages in any entry up to its capacity.
type table struct{ pages []*page }

// freeTables holds the wiped page tables Clear hands back, each with its
// pages attached, so taking a table takes its pages too. Unlike a
// sync.Pool, which every garbage collection empties, it keeps them, so
// what a run allocates does not depend on when the collector last ran. A
// table is owned by one RAM or by the list, never both, and the list never
// holds more tables than were once in use together.
var freeTables struct {
	sync.Mutex
	list []*table
}

// NewRAM builds a RAM of size bytes mapped at base. Size and base must be
// word aligned.
func NewRAM(name string, base, size uint32, waitStates uint64) *RAM {
	if base%4 != 0 || size%4 != 0 || size == 0 {
		panic(fmt.Sprintf("mem: RAM %s base/size must be word aligned and non-zero", name))
	}
	return &RAM{base: base, size: int(size / 4), waitStates: waitStates, name: name}
}

// takePage gives the RAM page p, taking a table first if it has none: a
// recycled table's attached page if it has one, else a fresh page.
func (r *RAM) takePage(p int) *page {
	if r.table == nil {
		n := (r.size + pageWords - 1) / pageWords
		var t *table
		freeTables.Lock()
		if k := len(freeTables.list) - 1; k >= 0 {
			t, freeTables.list = freeTables.list[k], freeTables.list[:k]
		}
		freeTables.Unlock()
		if t == nil {
			t = new(table)
		}
		if cap(t.pages) < n {
			t.pages = append(t.pages[:cap(t.pages)], make([]*page, n-cap(t.pages))...)
		}
		t.pages = t.pages[:n]
		r.table = t
	}
	pg := r.table.pages[p]
	if pg == nil {
		pg = new(page)
		r.table.pages[p] = pg
	}
	return pg
}

// read appends n words from word index idx to dst; unwritten pages read
// as zeros.
func (r *RAM) read(dst []uint32, idx, n int) []uint32 {
	for n > 0 {
		p, off := idx/pageWords, idx%pageWords
		k := min(n, pageWords-off)
		if r.table == nil || r.table.pages[p] == nil {
			for range k {
				dst = append(dst, 0)
			}
		} else {
			dst = append(dst, r.table.pages[p][off:off+k]...)
		}
		idx, n = idx+k, n-k
	}
	return dst
}

// write copies words to word index idx onward, taking the pages they land
// on.
func (r *RAM) write(idx int, words []uint32) {
	for len(words) > 0 {
		p := idx / pageWords
		var pg *page
		if r.table != nil {
			pg = r.table.pages[p]
		}
		if pg == nil {
			pg = r.takePage(p)
		}
		k := copy(pg[idx%pageWords:], words)
		idx, words = idx+k, words[k:]
	}
}

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
		return ocp.Response{Data: r.read(dst, idx, req.Burst)}
	case req.Cmd.IsWrite():
		r.write(idx, req.Data[:min(len(req.Data), req.Burst)])
		return ocp.Response{}
	}
	return ocp.Response{Err: true}
}

// PeekWord reads a word directly, bypassing timing — used by program
// loaders, test assertions and functional validation only.
func (r *RAM) PeekWord(addr uint32) uint32 {
	idx, ok := r.index(addr)
	if !ok {
		panic(fmt.Sprintf("mem: PeekWord %#08x outside %s %v", addr, r.name, r.Range()))
	}
	if r.table == nil || r.table.pages[idx/pageWords] == nil {
		return 0
	}
	return r.table.pages[idx/pageWords][idx%pageWords]
}

// LoadWords copies words into memory starting at addr (loader path).
func (r *RAM) LoadWords(addr uint32, words []uint32) {
	idx, ok := r.index(addr)
	if !ok || idx+len(words) > r.size {
		panic(fmt.Sprintf("mem: LoadWords %#08x+%d outside %s %v", addr, len(words), r.name, r.Range()))
	}
	r.write(idx, words)
}

// Clear zeroes the whole memory: the pages are wiped and the table, pages
// attached, is handed back for the next memory to take, and the RAM reads
// as zeros until it is written again. A runner that is done with a
// platform clears its memories so the next platform it builds reuses
// their pages.
func (r *RAM) Clear() {
	t := r.table
	if t == nil {
		return
	}
	for _, pg := range t.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
	t.pages = t.pages[:cap(t.pages)]
	freeTables.Lock()
	freeTables.list = append(freeTables.list, t)
	freeTables.Unlock()
	r.table = nil
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
