package noc

import (
	"testing"

	"noctg/internal/mem"
	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/simtest"
)

func TestMinimalBuffersStillDeliver(t *testing.T) {
	// BufferFlits=1 maximises backpressure; wormhole flow control must
	// still deliver everything without deadlock (2 VCs + XY).
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 3, Height: 3, BufferFlits: 1}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 1)
	if err := n.AttachSlave(8, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	var masters []*simtest.Master
	for _, node := range []int{0, 1, 2, 3} {
		var steps []simtest.Step
		for k := 0; k < 8; k++ {
			steps = append(steps, simtest.Step{
				Req: ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1000 + uint32(k*16), Burst: 4},
			})
		}
		m := simtest.NewMaster(n.AttachMaster(node), steps)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	_, err := e.Run(100_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	})
	if err != nil {
		t.Fatalf("minimal-buffer mesh stalled: %v", err)
	}
}

func TestWormholePacketsStayContiguous(t *testing.T) {
	// With competing traffic, each slave NI must still see every request
	// packet's flits back to back per VC — wormhole allocation holds the
	// output until the tail passes. Correct reassembly under load proves it
	// (the NI has no reordering logic to hide interleaving).
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 4, Height: 2, BufferFlits: 2}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x4000, 1)
	if err := n.AttachSlave(7, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 0x1000; i += 4 {
		ram.LoadWords(0x1000+i, []uint32{i})
	}
	var masters []*simtest.Master
	for mi, node := range []int{0, 1, 2, 3} {
		var steps []simtest.Step
		for k := 0; k < 6; k++ {
			// Long bursts maximise interleaving opportunity.
			steps = append(steps, simtest.Step{
				Req: ocp.Request{Cmd: ocp.BurstRead, Addr: 0x1000 + uint32(mi*0x400+k*32), Burst: 8},
			})
		}
		m := simtest.NewMaster(n.AttachMaster(node), steps)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	_, err := e.Run(200_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	})
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range masters {
		for si, data := range m.RespData {
			base := uint32(mi*0x400 + si*32)
			for b, v := range data {
				want := base + uint32(b*4)
				if v != want {
					t.Fatalf("master %d burst %d beat %d: %#x, want %#x (interleaved?)", mi, si, b, v, want)
				}
			}
		}
	}
}

func TestManyToOneHotspot(t *testing.T) {
	// All masters hammer one slave: throughput is bounded by the slave,
	// but fairness (round-robin allocation) keeps every master progressing.
	e := sim.NewEngine(sim.Clock{})
	n := New(Config{Width: 3, Height: 2}, e.Cycle)
	ram := mem.NewRAM("ram", 0x1000, 0x1000, 0)
	if err := n.AttachSlave(5, ram, ram.Range()); err != nil {
		t.Fatal(err)
	}
	var masters []*simtest.Master
	for _, node := range []int{0, 1, 2, 3} {
		steps := make([]simtest.Step, 10)
		for k := range steps {
			steps[k] = simtest.Step{Req: ocp.Request{Cmd: ocp.Read, Addr: 0x1000, Burst: 1}}
		}
		m := simtest.NewMaster(n.AttachMaster(node), steps)
		masters = append(masters, m)
		e.Add(m)
	}
	e.Add(n)
	if _, err := e.Run(200_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return n.Idle()
	}); err != nil {
		t.Fatal(err)
	}
	// No master should be starved: completion spread bounded.
	var min, max uint64 = ^uint64(0), 0
	for _, m := range masters {
		done := m.RespCycles[len(m.RespCycles)-1]
		if done < min {
			min = done
		}
		if done > max {
			max = done
		}
	}
	if max > min*3 {
		t.Fatalf("hotspot starvation: completions spread %d..%d", min, max)
	}
}
