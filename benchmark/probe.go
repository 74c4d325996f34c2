package main

import "time"

// The host-speed probe. The shared seed host runs in speed phases: the
// same body measures 1.4 s one minute and 1.8 s the next, and ten
// invocations of one commit then spread 15–27 % (README, "Measured
// noise"). A fixed piece of synthetic work is timed right before each setup
// and right after each body; a workload's three bounded timings (wall_s,
// sim_mcps, setup_s) are reported at the reference host speed, every sample
// times one factor per workload and set: the median of probeRefMS ÷ probe
// milliseconds over its repeats. One factor keeps the samples' relative
// spread exactly as measured. The factor is proc.host_speed, the unscaled
// body seconds proc.wall_raw_s.
//
// The probe shares no code with the simulator: a change to the code under
// test must never move its own yardstick.

// probeRefMS defines the reference speed: a host on which the probe at its
// full size (sizes.probeIters) takes this long reads host_speed 1.0 — the
// seed host in a fast phase. It only fixes the unit; it cancels out of every
// comparison of two result files.
const probeRefMS = 21.5

// probeTable is the probe's 128 KB working set: L2-resident, like the
// simulator's device state.
var probeTable = func() []uint32 {
	t := make([]uint32, 1<<15)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

var probeSink uint32

// hostProbe times the probe work — a xorshift dependency chain with
// data-dependent branches and scattered loads and stores over the table —
// and returns its milliseconds.
func hostProbe(iters int) float64 {
	start := time.Now()
	tbl := probeTable
	x, sum := uint32(1), uint32(0)
	mask := uint32(len(tbl) - 1)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := tbl[x&mask]
		if v&1 != 0 {
			sum += v
		} else {
			sum ^= x
		}
		tbl[(x>>7)&mask] = sum
	}
	probeSink += sum
	return time.Since(start).Seconds() * 1e3
}
