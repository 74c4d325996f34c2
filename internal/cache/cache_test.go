package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"noctg/internal/amba"
	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
)

func TestCacheIndexing(t *testing.T) {
	c := New(Config{Lines: 4, WordsPerLine: 4})
	// Line size 16 bytes; 4 lines → 64-byte stride aliases to the same line.
	if c.LineBase(0x37) != 0x30 {
		t.Fatalf("LineBase(0x37) = %#x", c.LineBase(0x37))
	}
	l1, w1, t1 := c.index(0x10)
	l2, w2, t2 := c.index(0x10 + 64)
	if l1 != l2 || w1 != w2 || t1 == t2 {
		t.Fatalf("aliasing addresses should share line/word but differ in tag")
	}
}

// TestCacheIndexMatchesDivision: the precomputed shifts and masks split
// every address exactly as word/line/set division does, for direct-mapped,
// 2-way and 4-way caches of several geometries.
func TestCacheIndexMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ways := range []int{1, 2, 4} {
		for _, cfg := range []Config{{Lines: 4, WordsPerLine: 1}, {Lines: 8, WordsPerLine: 2},
			{Lines: 64, WordsPerLine: 4}, {Lines: 256, WordsPerLine: 16}} {
			cfg.Ways = ways
			c := New(cfg)
			sets := uint32(cfg.Lines / ways)
			wpl := uint32(cfg.WordsPerLine)
			for i := 0; i < 2000; i++ {
				addr := rng.Uint32()
				if i < 4 {
					addr = []uint32{0, 4, 0xfffffffc, 0xffffffff}[i]
				}
				set, word, tag := c.index(addr)
				w := addr / 4
				if word != int(w%wpl) || set != int(w/wpl%sets) || tag != w/wpl/sets {
					t.Fatalf("%+v: index(%#x) = (%d, %d, %#x), want (%d, %d, %#x)",
						cfg, addr, set, word, tag, w/wpl%sets, w%wpl, w/wpl/sets)
				}
			}
		}
	}
}

func TestCacheFillLookupEvict(t *testing.T) {
	c := New(Config{Lines: 2, WordsPerLine: 2})
	if _, ok := c.Lookup(0x00); ok {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x00, []uint32{10, 11})
	if v, ok := c.Lookup(0x04); !ok || v != 11 {
		t.Fatalf("lookup after fill = %d,%v", v, ok)
	}
	// 0x10 aliases line 0 (2 lines × 8 bytes = 16-byte stride).
	c.Fill(0x10, []uint32{20, 21})
	if _, ok := c.Lookup(0x00); ok {
		t.Fatal("evicted line should miss")
	}
	if v, ok := c.Lookup(0x10); !ok || v != 20 {
		t.Fatalf("new line lookup = %d,%v", v, ok)
	}
	if c.Refills != 2 {
		t.Fatalf("refills = %d", c.Refills)
	}
}

// TestLookupMatchesProbe: whatever came before — sequential walks,
// jumps, refills that evict, write-throughs and invalidation — every
// Lookup reports exactly what probing the set would: hit or miss, the
// word, the hit line's LRU stamp and the counters. Lookup compares a set's
// first way before probing, so this holds that shortcut to the probe.
func TestLookupMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{{Lines: 4, WordsPerLine: 1}, {Lines: 8, WordsPerLine: 2, Ways: 2},
		{Lines: 16, WordsPerLine: 4}, {Lines: 16, WordsPerLine: 4, Ways: 4}, {Lines: 8, WordsPerLine: 8, Ways: 2}} {
		c := New(cfg)
		line := make([]uint32, cfg.WordsPerLine)
		addr := uint32(0)
		for i := 0; i < 20000; i++ {
			switch r := rng.Intn(20); {
			case r < 12:
				addr += 4 // a sequential walk
			case r < 15:
				addr = uint32(rng.Intn(512)) * 4
			case r < 18:
				for w := range line {
					line[w] = rng.Uint32()
				}
				c.Fill(uint32(rng.Intn(512))*4, line)
				continue
			case r < 19:
				c.Update(uint32(rng.Intn(512))*4, rng.Uint32())
				continue
			default:
				if rng.Intn(20) == 0 {
					clear(c.valid)
				}
				continue
			}
			set, word, tag := c.index(addr)
			want := c.find(set, tag)
			hits, misses := c.Hits, c.Misses
			v, ok := c.Lookup(addr)
			switch {
			case ok != (want >= 0):
				t.Fatalf("%+v op %d: Lookup(%#x) hit %v, the probe says %v", cfg, i, addr, ok, want >= 0)
			case ok && (v != c.data[want*cfg.WordsPerLine+word] || c.used[want] != c.clock || c.Hits != hits+1 || c.Misses != misses):
				t.Fatalf("%+v op %d: Lookup(%#x) hit with the wrong word, stamp or counters", cfg, i, addr)
			case !ok && (c.Misses != misses+1 || c.Hits != hits):
				t.Fatalf("%+v op %d: Lookup(%#x) missed with the wrong counters", cfg, i, addr)
			}
		}
		if c.Hits == 0 || c.Misses == 0 {
			t.Fatalf("%+v: %d hits, %d misses; the walk must see both", cfg, c.Hits, c.Misses)
		}
	}
}

func TestCacheUpdateOnlyIfResident(t *testing.T) {
	c := New(Config{Lines: 2, WordsPerLine: 2})
	c.Update(0x00, 99) // not resident: no-allocate
	if _, ok := c.Lookup(0x00); ok {
		t.Fatal("update must not allocate")
	}
	c.Fill(0x00, []uint32{1, 2})
	c.Update(0x04, 42)
	if v, _ := c.Lookup(0x04); v != 42 {
		t.Fatalf("update of resident word lost: %d", v)
	}
}

func TestCacheBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two config should panic")
		}
	}()
	New(Config{Lines: 3, WordsPerLine: 4})
}

func TestCacheFillWrongSizePanics(t *testing.T) {
	c := New(Config{Lines: 2, WordsPerLine: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("short fill should panic")
		}
	}()
	c.Fill(0, []uint32{1})
}

// rig builds MemUnit → monitor → bus → RAM.
func rigMU(t *testing.T, icfg, dcfg Config) (*sim.Engine, *MemUnit, *ocp.Monitor, *mem.RAM) {
	t.Helper()
	e := sim.NewEngine(sim.Clock{})
	bus := amba.New(amba.Config{}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x2000, 1)
	shared := mem.NewRAM("shared", 0x8000, 0x1000, 1)
	if err := bus.MapSlave(ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	if err := bus.MapSlave(shared, shared.Range()); err != nil {
		t.Fatal(err)
	}
	mon := ocp.NewMonitor(bus.NewMasterPort(), e.Cycle)
	mon.Record()
	mu := NewMemUnit(mon, New(icfg), New(dcfg), []ocp.AddrRange{ram.Range()})
	e.Add(sim.DeviceFunc(mu.Tick))
	e.Add(bus)
	return e, mu, mon, ram
}

// doOp runs one operation to completion and returns the value and cycles.
func doOp(t *testing.T, e *sim.Engine, mu *MemUnit, op OpKind, addr, data uint32) (uint32, uint64) {
	t.Helper()
	start := e.Cycle()
	mu.Begin(op, addr, data)
	for i := 0; i < 10_000; i++ {
		e.Step()
		if v, ok := mu.TakeResult(); ok {
			return v, e.Cycle() - start
		}
	}
	t.Fatal("operation never completed")
	return 0, 0
}

func TestLoadMissThenHit(t *testing.T) {
	e, mu, mon, ram := rigMU(t, Config{}, Config{Lines: 8, WordsPerLine: 4})
	ram.LoadWords(0x1100, []uint32{7})
	ram.LoadWords(0x1104, []uint32{8})

	v, missCycles := doOp(t, e, mu, OpLoad, 0x1100, 0)
	if v != 7 {
		t.Fatalf("miss load = %d", v)
	}
	evs := logged(mon)
	if len(evs) != 1 || evs[0].Cmd != ocp.BurstRead || evs[0].Burst != 4 {
		t.Fatalf("miss should emit one 4-beat burst read, got %+v", evs)
	}
	v, hitCycles := doOp(t, e, mu, OpLoad, 0x1104, 0)
	if v != 8 {
		t.Fatalf("hit load = %d", v)
	}
	if len(logged(mon)) != 1 {
		t.Fatal("hit must not touch the bus")
	}
	if hitCycles >= missCycles {
		t.Fatalf("hit (%d cycles) should be faster than miss (%d)", hitCycles, missCycles)
	}
	if hitCycles != 1 {
		t.Fatalf("hit should cost 1 cycle, took %d", hitCycles)
	}
}

func TestStoreWriteThrough(t *testing.T) {
	e, mu, mon, ram := rigMU(t, Config{}, Config{Lines: 8, WordsPerLine: 4})
	ram.LoadWords(0x1200, []uint32{1})
	doOp(t, e, mu, OpLoad, 0x1200, 0) // bring line in
	doOp(t, e, mu, OpStore, 0x1200, 55)
	// Let the posted write drain through the bus.
	e.RunFor(20)
	if ram.PeekWord(0x1200) != 55 {
		t.Fatal("write-through did not reach memory")
	}
	v, _ := doOp(t, e, mu, OpLoad, 0x1200, 0)
	if v != 55 {
		t.Fatalf("cached copy not updated: %d", v)
	}
	var writes int
	for _, ev := range logged(mon) {
		if ev.Cmd == ocp.Write {
			writes++
		}
	}
	if writes != 1 {
		t.Fatalf("store should emit exactly one bus write, got %d", writes)
	}
}

func TestUncachedAccessBypasses(t *testing.T) {
	e, mu, mon, _ := rigMU(t, Config{}, Config{})
	doOp(t, e, mu, OpStore, 0x8010, 9) // shared region: uncacheable
	v, _ := doOp(t, e, mu, OpLoad, 0x8010, 0)
	if v != 9 {
		t.Fatalf("uncached load = %d", v)
	}
	evs := logged(mon)
	if len(evs) != 2 || evs[0].Cmd != ocp.Write || evs[1].Cmd != ocp.Read {
		t.Fatalf("uncached ops should be single-word WR+RD, got %+v", evs)
	}
	// Repeating the load must hit the bus again (no caching).
	doOp(t, e, mu, OpLoad, 0x8010, 0)
	if len(logged(mon)) != 3 {
		t.Fatal("uncached load must not be cached")
	}
}

func TestFetchThroughICache(t *testing.T) {
	e, mu, mon, ram := rigMU(t, Config{Lines: 4, WordsPerLine: 4}, Config{})
	ram.LoadWords(0x1000, []uint32{0xfeed})
	v, _ := doOp(t, e, mu, OpFetch, 0x1000, 0)
	if v != 0xfeed {
		t.Fatalf("fetch = %#x", v)
	}
	doOp(t, e, mu, OpFetch, 0x1004, 0) // same line: hit
	if len(logged(mon)) != 1 {
		t.Fatal("second fetch in the line should hit")
	}
	if mu.ICache().Hits != 1 || mu.ICache().Misses != 1 {
		t.Fatalf("icache stats hits=%d misses=%d", mu.ICache().Hits, mu.ICache().Misses)
	}
}

func TestFaultOnDecodeError(t *testing.T) {
	e, mu, _, _ := rigMU(t, Config{}, Config{})
	doOp(t, e, mu, OpLoad, 0x4000_0000, 0)
	if !mu.Faulted() {
		t.Fatal("load from unmapped address should fault")
	}
}

func TestBeginWhileBusyPanics(t *testing.T) {
	_, mu, _, _ := rigMU(t, Config{}, Config{})
	mu.Begin(OpLoad, 0x1000, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin while busy should panic")
		}
	}()
	mu.Begin(OpLoad, 0x1004, 0)
}

func TestMemUnitVersusFlatMemoryProperty(t *testing.T) {
	// Any interleaving of cached loads/stores behaves exactly like a flat
	// memory (single master, so write-through cannot diverge).
	e, mu, _, ram := rigMU(t, Config{}, Config{Lines: 4, WordsPerLine: 2})
	model := map[uint32]uint32{}
	base := uint32(0x1000)
	for i := uint32(0); i < 64; i++ {
		ram.LoadWords(base+i*4, []uint32{i * 3})
		model[base+i*4] = i * 3
	}
	f := func(idx uint8, val uint32, store bool) bool {
		addr := base + uint32(idx%64)*4
		if store {
			doOp(t, e, mu, OpStore, addr, val)
			model[addr] = val
			return true
		}
		v, _ := doOp(t, e, mu, OpLoad, addr, 0)
		return v == model[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// After draining, memory must agree with the model everywhere.
	e.RunFor(50)
	for addr, want := range model {
		if got := ram.PeekWord(addr); got != want {
			t.Fatalf("mem[%#x] = %d, want %d", addr, got, want)
		}
	}
}

// logged returns the events mon has recorded, as a flat slice.
func logged(mon *ocp.Monitor) []ocp.Event {
	log := mon.Log()
	evs := make([]ocp.Event, log.Len())
	for i := range evs {
		evs[i] = *log.At(i)
	}
	return evs
}
