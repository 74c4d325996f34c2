package core

import (
	"math/rand"
	"testing"

	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/trace"
)

// TestTranslateReplayExactProperty is the package's central correctness
// property: for a trace without polling, translating and replaying against
// an interconnect with the same latencies must reproduce every transaction
// at exactly its recorded acceptance cycle. This is what makes the Table 2
// error column ≈0 — any cycle-cost mismatch between the translator's
// bookkeeping and the device's execution shows up here immediately.
func TestTranslateReplayExactProperty(t *testing.T) {
	const (
		acceptDelay = 1 // port accepts on the cycle after assert
		respDelay   = 4 // read data arrives 4 cycles after acceptance
	)
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var evs []ocp.Event
		now := uint64(rng.Intn(6))
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Gaps of at least 4 cycles leave room for SetRegister overhead
			// (addr+data) so nothing is clamped.
			gap := uint64(4 + rng.Intn(12))
			e := ocp.Event{Burst: 1, Addr: uint32(rng.Intn(256)) * 4}
			e.Assert = now + gap
			e.Accept = e.Assert + acceptDelay
			switch rng.Intn(4) {
			case 0:
				e.Cmd = ocp.Read
				e.HasResp = true
				e.Resp = e.Accept + respDelay
				e.Data = []uint32{rng.Uint32()}
			case 1:
				e.Cmd = ocp.Write
				e.Data = []uint32{rng.Uint32() % 4} // small set → elision paths
			case 2:
				e.Cmd = ocp.BurstRead
				e.Burst = 1 << rng.Intn(3)
				e.HasResp = true
				e.Resp = e.Accept + respDelay
				e.Data = make([]uint32, e.Burst)
			default:
				e.Cmd = ocp.BurstWrite
				e.Burst = 1 << rng.Intn(3)
				e.Data = make([]uint32, e.Burst)
				v := rng.Uint32() % 4
				for k := range e.Data {
					e.Data[k] = v // burst payloads replay one register
				}
			}
			evs = append(evs, e)
			now = e.Done()
		}
		tr := trace.New(0, sim.DefaultClock, ocp.LogOf(evs))
		prog, stats, err := Translate(tr, TranslateConfig{RecognizePolls: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.ClampedCycles != 0 {
			t.Fatalf("trial %d: unexpected clamping (%d cycles)", trial, stats.ClampedCycles)
		}

		var cycle uint64
		port := &fakePort{now: func() uint64 { return cycle }, acceptDelay: acceptDelay, respDelay: respDelay}
		d, err := NewDevice(prog, port)
		if err != nil {
			t.Fatal(err)
		}
		for ; !d.Done() && cycle < now+10_000; cycle++ {
			d.Tick(cycle)
		}
		if !d.Done() {
			t.Fatalf("trial %d: replay did not finish", trial)
		}
		if len(port.log) != len(evs) {
			t.Fatalf("trial %d: replayed %d of %d transactions", trial, len(port.log), len(evs))
		}
		for i, got := range port.log {
			want := evs[i]
			// fakePort logs at acceptance.
			if got.Assert != want.Accept {
				t.Fatalf("trial %d, txn %d (%v @%d): accepted at %d, want %d",
					trial, i, want.Cmd, want.Assert, got.Assert, want.Accept)
			}
			if got.Cmd != want.Cmd || got.Addr != want.Addr || got.Burst != want.Burst {
				t.Fatalf("trial %d, txn %d: shape mismatch %+v vs %+v", trial, i, got, want)
			}
			if want.Cmd.IsWrite() {
				for k := range want.Data {
					if got.Data[k] != want.Data[k] {
						t.Fatalf("trial %d, txn %d: write data %v vs %v", trial, i, got.Data, want.Data)
					}
				}
			}
		}
	}
}

// TestTranslateIdleSumProperty: for a linear trace, the total of emitted
// Idle amounts plus one cycle per non-Idle instruction reconstructs the
// trace's command schedule — i.e. nothing is lost or double counted.
func TestTranslateIdleSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		var evs []ocp.Event
		now := uint64(0)
		for i := 0; i < 20; i++ {
			gap := uint64(6 + rng.Intn(10))
			e := ocp.Event{Cmd: ocp.Write, Burst: 1, Addr: uint32(i) * 4,
				Data: []uint32{uint32(i)}}
			e.Assert = now + gap
			e.Accept = e.Assert + 1
			evs = append(evs, e)
			now = e.Done()
		}
		prog, _, err := Translate(trace.New(0, sim.DefaultClock, ocp.LogOf(evs)), TranslateConfig{RecognizePolls: true})
		if err != nil {
			t.Fatal(err)
		}
		// Walk the program symbolically: each instruction costs 1 cycle
		// except Idle(n) costing n; a command's execution tick must be its
		// recorded assert, after which time jumps to its completion + 1.
		tick := uint64(0)
		cmd := 0
		for _, in := range prog.Insts {
			switch in.Op {
			case Idle:
				tick += uint64(in.Imm)
			case Write:
				if tick != evs[cmd].Assert {
					t.Fatalf("trial %d: command %d executes at %d, want %d", trial, cmd, tick, evs[cmd].Assert)
				}
				tick = evs[cmd].Done() + 1
				cmd++
			case Halt:
			default:
				tick++
			}
		}
		if cmd != len(evs) {
			t.Fatalf("trial %d: %d of %d commands emitted", trial, cmd, len(evs))
		}
	}
}
