package mem

import (
	"testing"
	"testing/quick"

	"noctg/internal/ocp"
)

func TestRAMReadWrite(t *testing.T) {
	r := NewRAM("priv", 0x1000, 64, 1)
	resp := r.Perform(&ocp.Request{Cmd: ocp.Write, Addr: 0x1004, Burst: 1, Data: []uint32{0xdeadbeef}})
	if resp.Err {
		t.Fatal("write failed")
	}
	resp = r.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x1004, Burst: 1})
	if resp.Err || resp.Data[0] != 0xdeadbeef {
		t.Fatalf("read back %#x", resp.Data)
	}
}

func TestRAMBurst(t *testing.T) {
	r := NewRAM("priv", 0, 64, 1)
	payload := []uint32{1, 2, 3, 4}
	if resp := r.Perform(&ocp.Request{Cmd: ocp.BurstWrite, Addr: 8, Burst: 4, Data: payload}); resp.Err {
		t.Fatal("burst write failed")
	}
	resp := r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: 8, Burst: 4})
	if resp.Err {
		t.Fatal("burst read failed")
	}
	for i, v := range payload {
		if resp.Data[i] != v {
			t.Fatalf("beat %d = %#x, want %#x", i, resp.Data[i], v)
		}
	}
}

func TestRAMOutOfRange(t *testing.T) {
	r := NewRAM("priv", 0x1000, 16, 0)
	if resp := r.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x0ffc, Burst: 1}); !resp.Err {
		t.Fatal("below-base read should fail")
	}
	if resp := r.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x1010, Burst: 1}); !resp.Err {
		t.Fatal("past-end read should fail")
	}
	// Burst straddling the end must fail, not partially succeed.
	if resp := r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: 0x100c, Burst: 4}); !resp.Err {
		t.Fatal("straddling burst should fail")
	}
}

func TestRAMAccessCyclesScaleWithBurst(t *testing.T) {
	r := NewRAM("priv", 0, 64, 3)
	if got := r.AccessCycles(&ocp.Request{Cmd: ocp.Read, Burst: 1}); got != 3 {
		t.Fatalf("single access = %d, want 3", got)
	}
	if got := r.AccessCycles(&ocp.Request{Cmd: ocp.BurstRead, Burst: 4}); got != 12 {
		t.Fatalf("burst access = %d, want 12", got)
	}
}

func TestRAMPeekPokeLoad(t *testing.T) {
	r := NewRAM("priv", 0x100, 32, 0)
	r.LoadWords(0x104, []uint32{42})
	if r.PeekWord(0x104) != 42 {
		t.Fatal("peek/poke mismatch")
	}
	r.LoadWords(0x108, []uint32{7, 8})
	if r.PeekWord(0x108) != 7 || r.PeekWord(0x10c) != 8 {
		t.Fatal("LoadWords mismatch")
	}
	r.Clear()
	if r.PeekWord(0x104) != 0 {
		t.Fatal("Clear did not zero")
	}
}

// An unwritten RAM reads as zeros through every read path and takes no
// page table to do so; reads stay bounds-checked.
func TestRAMUnwrittenReadsZeroWithoutStore(t *testing.T) {
	r := NewRAM("priv", 0x1000, 1<<20, 0)
	dst := make([]uint32, 0, 4)
	if avg := testing.AllocsPerRun(10, func() {
		resp := r.PerformInto(&ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1ff8, Burst: 4}, dst)
		if resp.Err || len(resp.Data) != 4 || resp.Data[0]|resp.Data[1]|resp.Data[2]|resp.Data[3] != 0 {
			t.Fatalf("unwritten burst read = %+v", resp)
		}
		if r.PeekWord(0x1000+1<<20-4) != 0 {
			t.Fatal("unwritten peek is not zero")
		}
		r.Clear()
	}); avg != 0 || r.table != nil {
		t.Fatalf("reading an unwritten RAM allocates %.0f times, table taken: %v", avg, r.table != nil)
	}
	if resp := r.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x1000 + 1<<20, Burst: 1}); !resp.Err {
		t.Fatal("past-end read of an unwritten RAM should fail")
	}
	if resp := r.Perform(&ocp.Request{Cmd: ocp.BurstWrite, Addr: 0x1000 + 1<<20 - 8, Burst: 4, Data: make([]uint32, 4)}); !resp.Err || r.table != nil {
		t.Fatal("straddling write should fail before taking a table")
	}
}

// A touched RAM still reads zeros from every page nobody wrote, whether
// the read stays inside an untouched page or straddles into one from a
// written page.
func TestRAMUntouchedPagesReadZero(t *testing.T) {
	const pageBytes = 4 * pageWords
	r := NewRAM("priv", 0, 8*pageBytes, 0)
	r.LoadWords(3*pageBytes+8, []uint32{7})
	if len(r.table.pages) != 8 || r.table.pages[3] == nil {
		t.Fatalf("a poke into page 3 left a table of %d pages", len(r.table.pages))
	}
	if r.PeekWord(5*pageBytes) != 0 || r.PeekWord(3*pageBytes+8) != 7 {
		t.Fatal("untouched page or poked word reads wrong")
	}
	resp := r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: 3*pageBytes - 8, Burst: 4})
	if resp.Err || len(resp.Data) != 4 || resp.Data[0]|resp.Data[1]|resp.Data[2]|resp.Data[3] != 0 {
		t.Fatalf("burst from an untouched into a touched page = %+v", resp)
	}
	resp = r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: 4*pageBytes - 8, Burst: 4})
	if resp.Err || len(resp.Data) != 4 || resp.Data[0]|resp.Data[1]|resp.Data[2]|resp.Data[3] != 0 {
		t.Fatalf("burst from a touched into an untouched page = %+v", resp)
	}
}

// Bursts and LoadWords that cross a page boundary land word for
// word, and every path reads them back the same way.
func TestRAMAccessesCrossPages(t *testing.T) {
	const pageBytes = 4 * pageWords
	r := NewRAM("priv", 0x10000, 4*pageBytes, 0)
	edge := uint32(0x10000 + pageBytes)
	payload := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	if resp := r.Perform(&ocp.Request{Cmd: ocp.BurstWrite, Addr: edge - 12, Burst: 8, Data: payload}); resp.Err {
		t.Fatal("page-crossing burst write failed")
	}
	resp := r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: edge - 12, Burst: 8})
	if resp.Err || len(resp.Data) != 8 {
		t.Fatalf("page-crossing burst read = %+v", resp)
	}
	for i, v := range payload {
		if resp.Data[i] != v || r.PeekWord(edge-12+uint32(4*i)) != v {
			t.Fatalf("beat %d = %#x / peek %#x, want %#x", i, resp.Data[i], r.PeekWord(edge-12+uint32(4*i)), v)
		}
	}

	// A loader image spanning three pages, and pokes on both sides of the
	// next boundary.
	image := make([]uint32, pageWords+10)
	for i := range image {
		image[i] = uint32(i) ^ 0xa5a5
	}
	r.LoadWords(edge-20, image)
	for i, v := range image {
		if got := r.PeekWord(edge - 20 + uint32(4*i)); got != v {
			t.Fatalf("LoadWords word %d = %#x, want %#x", i, got, v)
		}
	}
	far := uint32(0x10000 + 3*pageBytes)
	r.LoadWords(far-4, []uint32{11})
	r.LoadWords(far, []uint32{12})
	if resp := r.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: far - 4, Burst: 2}); resp.Err || resp.Data[0] != 11 || resp.Data[1] != 12 {
		t.Fatalf("read across poked boundary = %+v", resp)
	}
}

// A table handed back by Clear comes out wiped, whoever takes it next: the
// same RAM, a RAM of the same size, or a smaller or larger one, round
// after round.
func TestRAMClearRecyclesWipedStore(t *testing.T) {
	for round := 0; round < 20; round++ {
		a := NewRAM("a", 0, 4*4096, 0)
		for addr := uint32(0); addr < 4*4096; addr += 4 {
			a.LoadWords(addr, []uint32{^addr})
		}
		a.Clear()
		if a.PeekWord(8) != 0 {
			t.Fatal("cleared RAM does not read zero")
		}
		a.LoadWords(8, []uint32{5}) // still usable: takes a table again
		if a.PeekWord(8) != 5 || a.PeekWord(12) != 0 || a.PeekWord(3*4096) != 0 {
			t.Fatal("cleared RAM is not writable or reads stale words")
		}
		a.Clear()

		for _, size := range []uint32{4 * 4096, 4*4096 - 40, 2052, 8 * 4096} {
			b := NewRAM("b", 0x80000, size, 0)
			b.LoadWords(0x80000, []uint32{1})
			if got := (b.Range()); got.Size != size {
				t.Fatalf("Range().Size = %#x, want %#x", got.Size, size)
			}
			for addr := uint32(4); addr < size; addr += 4 {
				if v := b.PeekWord(0x80000 + addr); v != 0 {
					t.Fatalf("round %d size %d: word %#x = %#x leaked from a recycled table", round, size, addr, v)
				}
			}
			if resp := b.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x80000 + size, Burst: 1}); !resp.Err {
				t.Fatalf("size %d: read past the end of a RAM on a larger table should fail", size)
			}
			b.Clear()
		}
	}
}

func TestRAMRange(t *testing.T) {
	r := NewRAM("x", 0x2000, 0x100, 0)
	want := ocp.AddrRange{Base: 0x2000, Size: 0x100}
	if r.Range() != want {
		t.Fatalf("Range = %v, want %v", r.Range(), want)
	}
	if r.Name() != "x" {
		t.Fatal("name")
	}
}

func TestRAMRandomAccessProperty(t *testing.T) {
	// RAM behaves as a map from word index to last written value.
	r := NewRAM("p", 0, 1024, 0)
	model := make(map[uint32]uint32)
	f := func(idx uint8, val uint32, write bool) bool {
		addr := uint32(idx) * 4
		if write {
			r.Perform(&ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1, Data: []uint32{val}})
			model[addr] = val
			return true
		}
		resp := r.Perform(&ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1})
		return !resp.Err && resp.Data[0] == model[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSemBankTestAndSet(t *testing.T) {
	s := NewSemBank("sem", 0x9000, 4, 1)
	addr := s.Addr(1)

	// First read of a free semaphore returns 1 and locks it.
	resp := s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1})
	if resp.Err || resp.Data[0] != 1 {
		t.Fatalf("first read = %v, want 1", resp.Data)
	}
	if s.free[1] {
		t.Fatal("semaphore should now be held")
	}
	// Subsequent reads fail with 0.
	for i := 0; i < 3; i++ {
		resp = s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1})
		if resp.Data[0] != 0 {
			t.Fatalf("poll %d = %v, want 0", i, resp.Data)
		}
	}
	// Unlock with WR 1, then it can be taken again.
	s.Perform(&ocp.Request{Cmd: ocp.Write, Addr: addr, Burst: 1, Data: []uint32{1}})
	if !s.free[1] {
		t.Fatal("write 1 should unlock")
	}
	resp = s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: addr, Burst: 1})
	if resp.Data[0] != 1 {
		t.Fatal("re-acquire after unlock failed")
	}
	acq, fails, rel := s.Stats()
	if acq != 2 || fails != 3 || rel != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/3/1", acq, fails, rel)
	}
}

func TestSemBankIndependentSemaphores(t *testing.T) {
	s := NewSemBank("sem", 0, 8, 0)
	s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: s.Addr(2), Burst: 1})
	if !s.free[3] || s.free[2] {
		t.Fatal("acquiring one semaphore must not affect others")
	}
}

func TestSemBankWriteZeroLocks(t *testing.T) {
	s := NewSemBank("sem", 0, 1, 0)
	s.Perform(&ocp.Request{Cmd: ocp.Write, Addr: 0, Burst: 1, Data: []uint32{0}})
	if s.free[0] {
		t.Fatal("write 0 should lock")
	}
}

func TestSemBankRejectsBurstsAndBadAddr(t *testing.T) {
	s := NewSemBank("sem", 0x9000, 2, 0)
	if resp := s.Perform(&ocp.Request{Cmd: ocp.BurstRead, Addr: 0x9000, Burst: 2}); !resp.Err {
		t.Fatal("burst to semaphore bank should fail")
	}
	if resp := s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0x9010, Burst: 1}); !resp.Err {
		t.Fatal("out-of-range semaphore read should fail")
	}
}

func TestSemBankMutualExclusionProperty(t *testing.T) {
	// However reads and writes interleave, at most one "holder" exists per
	// semaphore: successful acquires (read→1) strictly alternate with
	// releases for each word.
	f := func(ops []bool) bool {
		s := NewSemBank("sem", 0, 1, 0)
		held := false
		for _, acquire := range ops {
			if acquire {
				resp := s.Perform(&ocp.Request{Cmd: ocp.Read, Addr: 0, Burst: 1})
				got := resp.Data[0] == 1
				if got && held {
					return false // double acquire
				}
				if got {
					held = true
				}
			} else {
				s.Perform(&ocp.Request{Cmd: ocp.Write, Addr: 0, Burst: 1, Data: []uint32{1}})
				held = false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
