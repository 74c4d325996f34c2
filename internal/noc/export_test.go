package noc

// Test-only levers for the external watchdog tests (watchdog_test.go):
// each skews one account of the pool domain that owns node 0's router the
// way a fabric bug would, so the conservation scan has something real to
// catch. No production path can reach these states.

// SkewResidentFlits counts one flit more than the domain's FIFOs hold —
// the trace a flit lost in flight leaves.
func SkewResidentFlits(n *Network) { n.routers[0].st.residentFlits++ }

// SkewLivePackets counts one packet more out of the domain's pool than
// live references exist — the trace a packet never recycled leaves.
func SkewLivePackets(n *Network) { n.routers[0].st.livePackets++ }
