package platform

import "noctg/internal/guard"

// EnableGuard arms the guard layer (see internal/guard) on the system,
// routing each watchdog to the layer that can observe it:
//
//   - sharded XPipes: the shard runner carries all watchdogs — the SPMD
//     deadlock/budget verdicts at round boundaries, the barrier-stall bound
//     inside the barrier, and the conservation scan at segment ends;
//   - single-engine XPipes: a guard.Monitor installed as the engine
//     watchdog, probing the network's retirement/pool counters and running
//     the conservation scan on a cycle cadence;
//   - AMBA: the bus has no packet pool to probe, so only the wall-clock
//     run budget applies.
//
// Fault-free guarded runs execute exactly the cycles an unguarded run does
// and stay allocation-free on the hot path; violations surface as typed
// *guard.Violation errors from Run/RunPhased. Call once, before the first
// run.
func (s *System) EnableGuard(cfg guard.Config) {
	if !cfg.Enabled() {
		return
	}
	if s.Sharded != nil {
		net := s.Net
		runner := s.Sharded
		runner.EnableGuard(cfg, net.CheckInvariants, func() *guard.Diagnostic {
			return net.Diagnose(runner.Cycle())
		})
		return
	}
	p := guard.Probes{}
	if s.Net != nil {
		net := s.Net
		p.Progress = net.RetiredPackets
		p.Live = net.LivePackets
		p.Scan = net.CheckInvariants
		p.Diagnose = func() *guard.Diagnostic { return net.Diagnose(s.Engine.Cycle()) }
	}
	m := guard.NewMonitor(cfg, p)
	s.Engine.SetWatchdog(m.Check)
}
