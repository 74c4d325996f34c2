package shard

import (
	"errors"
	"testing"
	"time"

	"noctg/internal/guard"
	"noctg/internal/sim"
)

// dozer sleeps on the host clock when it ticks its fuse cycle, so its
// shard stops arriving at window barriers for that long. It is always
// awake, so every kernel ticks it there.
type dozer struct {
	fuse uint64
	nap  time.Duration
}

func (d *dozer) NextWake(now uint64) uint64 { return now }

func (d *dozer) Tick(cycle uint64) {
	if cycle == d.fuse {
		time.Sleep(d.nap)
	}
}

// TestGuardBarrierStall: a worker shard that sleeps far past the barrier
// bound trips barrier-stall on its peer, named as the waiting shard, and
// the runner stays latched dead: a later run returns the same violation
// without simulating.
func TestGuardBarrierStall(t *testing.T) {
	r := New([]*Shard{
		newShard(&ticker{}, sim.KernelStrict, 1000),
		newShard(&dozer{fuse: 42, nap: 300 * time.Millisecond}, sim.KernelStrict, 1000),
	})
	r.EnableGuard(guard.Config{BarrierStall: 25 * time.Millisecond}, nil, nil)
	err := r.Run(10_000, 32)
	var v *guard.Violation
	if !errors.As(err, &v) || v.Kind != guard.KindBarrierStall {
		t.Fatalf("run returned %v, want a %s violation", err, guard.KindBarrierStall)
	}
	if v.Shard != 0 {
		t.Fatalf("violation names shard %d, want the waiting peer 0", v.Shard)
	}
	at := r.Cycle()
	if again := r.Run(10_000, 32); again != err {
		t.Fatalf("latched runner returned %v, want the first violation", again)
	}
	if r.Cycle() != at {
		t.Fatalf("latched runner advanced from cycle %d to %d", at, r.Cycle())
	}
}

// TestGuardScanAtSegmentEnd: an invariant scan that reports a violation
// surfaces at the end of the segment, with its kind and the segment-end
// cycle stamped on it.
func TestGuardScanAtSegmentEnd(t *testing.T) {
	r := New([]*Shard{
		newShard(&ticker{}, sim.KernelStrict, 1000),
		newShard(&ticker{}, sim.KernelStrict, 1000),
	})
	scans := 0
	r.EnableGuard(guard.Config{Conservation: true}, func() *guard.Violation {
		scans++
		return &guard.Violation{Kind: guard.KindPoolMass, Shard: -1, Msg: "scan test"}
	}, nil)
	err := r.Run(100, 32)
	var v *guard.Violation
	if !errors.As(err, &v) || v.Kind != guard.KindPoolMass {
		t.Fatalf("run returned %v, want the scan's %s violation", err, guard.KindPoolMass)
	}
	if scans != 1 || v.Cycle != 100 {
		t.Fatalf("%d scans, violation at cycle %d; want one scan at the segment end, cycle 100", scans, v.Cycle)
	}
}
