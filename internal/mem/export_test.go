package mem

import "fmt"

// Addr returns the byte address of semaphore i.
func (s *SemBank) Addr(i int) uint32 {
	if i < 0 || i >= len(s.free) {
		panic(fmt.Sprintf("mem: semaphore index %d out of range", i))
	}
	return s.base + uint32(i*4)
}
