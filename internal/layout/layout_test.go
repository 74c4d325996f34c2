package layout

import "testing"

func TestPrivateRegionsDisjoint(t *testing.T) {
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if PrivRange(i).Overlaps(PrivRange(j)) {
				t.Fatalf("private ranges %d and %d overlap", i, j)
			}
		}
	}
}

func TestSystemRegionsDisjoint(t *testing.T) {
	if SharedRange().Overlaps(SemRange()) {
		t.Fatal("shared overlaps semaphores")
	}
	for i := 0; i < 16; i++ {
		if PrivRange(i).Overlaps(SharedRange()) || PrivRange(i).Overlaps(SemRange()) {
			t.Fatalf("private range %d overlaps a system range", i)
		}
	}
}

func TestSemAddr(t *testing.T) {
	if SemAddr(0) != SemBase || SemAddr(3) != SemBase+12 {
		t.Fatal("semaphore addressing")
	}
	if !SemRange().Contains(SemAddr(SemCount - 1)) {
		t.Fatal("last semaphore outside bank")
	}
}

func TestPrivBaseStride(t *testing.T) {
	if PrivBaseFor(0) != PrivBase {
		t.Fatal("core 0 base")
	}
	if PrivBaseFor(2)-PrivBaseFor(1) != PrivStride {
		t.Fatal("stride")
	}
	if PrivSize > PrivStride {
		t.Fatal("private size exceeds stride")
	}
}

// TestMaxCores: MaxCores private regions fit below the shared RAM, and one
// more would overlap it.
func TestMaxCores(t *testing.T) {
	if MaxCores != 112 {
		t.Fatalf("MaxCores = %d, want 112", MaxCores)
	}
	if PrivRange(MaxCores - 1).Overlaps(SharedRange()) {
		t.Fatal("the last allowed core's region overlaps the shared RAM")
	}
	if !PrivRange(MaxCores).Overlaps(SharedRange()) {
		t.Fatal("core MaxCores's region fits: MaxCores is too small")
	}
}
