// Package layout pins the MPARM-like system memory map shared by the
// platform builder, the benchmark programs and the trace translator.
//
// Each core owns a private, cacheable RAM; all cores see one uncacheable
// shared RAM and a bank of hardware test-and-set semaphores (uncacheable —
// there is no coherence protocol, exactly as in the paper's AMBA platform).
package layout

import "noctg/internal/ocp"

const (
	// PrivBase is core 0's private memory base; core i's base is
	// PrivBase + i·PrivStride.
	PrivBase uint32 = 0x0100_0000
	// PrivStride separates consecutive cores' private regions.
	PrivStride uint32 = 0x0010_0000
	// PrivSize is the actual private RAM size per core.
	PrivSize uint32 = 0x0002_0000 // 128 KiB
	// SharedBase locates the system-shared RAM.
	SharedBase uint32 = 0x0800_0000
	// SharedSize is the shared RAM size.
	SharedSize uint32 = 0x0004_0000 // 256 KiB
	// SemBase locates the hardware semaphore bank.
	SemBase uint32 = 0x0900_0000
	// SemCount is the number of semaphores in the bank.
	SemCount = 32
	// MaxCores is the number of private regions that fit below the shared
	// RAM: core MaxCores's region would overlap SharedBase.
	MaxCores = int((SharedBase - PrivBase) / PrivStride)
)

// PrivBaseFor returns core id's private memory base address.
func PrivBaseFor(id int) uint32 { return PrivBase + uint32(id)*PrivStride }

// PrivRange returns core id's private address range.
func PrivRange(id int) ocp.AddrRange {
	return ocp.AddrRange{Base: PrivBaseFor(id), Size: PrivSize}
}

// SharedRange returns the shared memory address range.
func SharedRange() ocp.AddrRange {
	return ocp.AddrRange{Base: SharedBase, Size: SharedSize}
}

// SemRange returns the semaphore bank address range.
func SemRange() ocp.AddrRange {
	return ocp.AddrRange{Base: SemBase, Size: SemCount * 4}
}

// SemAddr returns the address of semaphore i.
func SemAddr(i int) uint32 { return SemBase + uint32(i)*4 }
