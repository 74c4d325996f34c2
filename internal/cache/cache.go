// Package cache implements the IP cores' cache subsystem: set-associative
// (default direct-mapped) write-through caches with burst line refills,
// plus the MemUnit that arbitrates instruction fetches and data accesses
// onto the core's single OCP master port. Cache refill traffic is a
// first-class part of what the paper's TG must replay ("accurate modeling
// of cache refills"), so the refill engine speaks ordinary OCP burst reads
// that trace monitors see.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache. Lines and WordsPerLine must be powers of two;
// Ways must divide Lines.
type Config struct {
	// Lines is the total number of lines (across all ways).
	Lines int
	// WordsPerLine is the refill burst length in 32-bit words.
	WordsPerLine int
	// Ways is the set associativity (default 1 = direct-mapped).
	Ways int
}

// DefaultConfig is a 1 KiB direct-mapped cache with 4-word lines.
var DefaultConfig = Config{Lines: 64, WordsPerLine: 4, Ways: 1}

func (c Config) withDefaults() Config {
	if c.Lines == 0 {
		c.Lines = DefaultConfig.Lines
	}
	if c.WordsPerLine == 0 {
		c.WordsPerLine = DefaultConfig.WordsPerLine
	}
	if c.Ways == 0 {
		c.Ways = 1
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Cache is a set-associative write-through cache with LRU replacement
// (data storage only — the MemUnit performs the bus transactions).
type Cache struct {
	cfg   Config
	tags  []uint32 // sets × ways
	valid []bool
	data  []uint32 // sets × ways × wordsPerLine, flat
	used  []uint64 // LRU stamps
	clock uint64

	// Lines, Ways and WordsPerLine are powers of two, so index splits a
	// word address with these masks and shifts instead of dividing.
	wordMask, setMask, setShift, tagShift uint32

	Hits    uint64
	Misses  uint64
	Refills uint64
}

// New builds a cache.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if !isPow2(cfg.Lines) || !isPow2(cfg.WordsPerLine) {
		panic(fmt.Sprintf("cache: Lines (%d) and WordsPerLine (%d) must be powers of two", cfg.Lines, cfg.WordsPerLine))
	}
	if !isPow2(cfg.Ways) || cfg.Ways > cfg.Lines {
		panic(fmt.Sprintf("cache: Ways (%d) must be a power of two no larger than Lines (%d)", cfg.Ways, cfg.Lines))
	}
	lines, sets := cfg.Lines, uint32(cfg.Lines/cfg.Ways)
	wpl := uint32(cfg.WordsPerLine)
	return &Cache{
		cfg:      cfg,
		wordMask: wpl - 1,
		setMask:  sets - 1,
		setShift: uint32(bits.TrailingZeros32(wpl)),
		tagShift: uint32(bits.TrailingZeros32(wpl * sets)),
		tags:     make([]uint32, lines),
		valid:    make([]bool, lines),
		data:     make([]uint32, lines*cfg.WordsPerLine),
		used:     make([]uint64, lines),
	}
}

// Config returns the effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() uint32 { return uint32(c.cfg.WordsPerLine) * 4 }

// LineBase returns the first address of the line containing addr.
func (c *Cache) LineBase(addr uint32) uint32 { return addr &^ (c.LineBytes() - 1) }

// index decomposes an address into its set, word-in-line and tag.
func (c *Cache) index(addr uint32) (set int, word int, tag uint32) {
	w := addr >> 2
	word = int(w & c.wordMask)
	set = int(w >> c.setShift & c.setMask)
	tag = w >> c.tagShift
	return
}

// find returns the line index of set holding tag, or -1.
func (c *Cache) find(set int, tag uint32) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return base + w
		}
	}
	return -1
}

// Lookup probes the cache. On a hit it returns the cached word. The set's
// first way is compared before find runs, which on a direct-mapped cache
// is the whole probe.
func (c *Cache) Lookup(addr uint32) (uint32, bool) {
	set, word, tag := c.index(addr)
	line := set * c.cfg.Ways
	if !c.valid[line] || c.tags[line] != tag {
		line = c.find(set, tag)
	}
	if line < 0 {
		c.Misses++
		return 0, false
	}
	c.Hits++
	c.clock++
	c.used[line] = c.clock
	return c.data[line*c.cfg.WordsPerLine+word], true
}

// Fill installs a refilled line (words must cover the whole line starting
// at LineBase(addr)), evicting the set's least recently used way.
func (c *Cache) Fill(addr uint32, words []uint32) {
	if len(words) != c.cfg.WordsPerLine {
		panic(fmt.Sprintf("cache: Fill with %d words, line is %d", len(words), c.cfg.WordsPerLine))
	}
	set, _, tag := c.index(addr)
	base := set * c.cfg.Ways
	victim := -1
	for w := 0; w < c.cfg.Ways; w++ {
		line := base + w
		// Refilling a resident line must reuse its way — a duplicate tag in
		// the set would make later lookups ambiguous.
		if c.valid[line] && c.tags[line] == tag {
			victim = line
			break
		}
	}
	if victim < 0 {
		victim = base
		for w := 0; w < c.cfg.Ways; w++ {
			line := base + w
			if !c.valid[line] {
				victim = line
				break
			}
			if c.used[line] < c.used[victim] {
				victim = line
			}
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.clock++
	c.used[victim] = c.clock
	copy(c.data[victim*c.cfg.WordsPerLine:], words)
	c.Refills++
}

// Update writes through to a cached word if (and only if) the line is
// resident; it never allocates (write-through, no-allocate policy).
func (c *Cache) Update(addr uint32, v uint32) {
	set, word, tag := c.index(addr)
	line := c.find(set, tag)
	if line < 0 {
		return
	}
	c.data[line*c.cfg.WordsPerLine+word] = v
}
