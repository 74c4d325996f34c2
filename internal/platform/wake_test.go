package platform

import (
	"fmt"
	"testing"

	"noctg/internal/core"
	"noctg/internal/ocp"
	"noctg/internal/sim"
	"noctg/internal/simtest"
)

// pollPort hides its port's sim.WakeSink, so the master behind it cannot
// hand the port its waker and must poll.
type pollPort struct{ ocp.MasterPort }

// TestBlockedMasterSleepsOnlyBehindWakingPort: on both fabrics, master 0
// sits behind a wrapper that is not a sim.WakeSink and polls while blocked;
// master 1 sits behind its ocp.Monitor, which ocp.PassWaker looks through,
// and sleeps until the fabric wakes it. Under every kernel both reach the
// strict kernel's assert, accept and response cycles.
func TestBlockedMasterSleepsOnlyBehindWakingPort(t *testing.T) {
	src := "MASTER[0,0]\nREGISTER addr 0x08000000\nREGISTER data 5\nBEGIN\n" +
		"Read(addr)\nBurstRead(addr, 4)\nWrite(addr, data)\nRead(addr)\nHalt\nEND"
	for _, ic := range []Interconnect{AMBA, XPipes} {
		t.Run(ic.String(), func(t *testing.T) {
			simtest.Differential(t, "blocked masters", simtest.Kernel, func(t *testing.T, x simtest.Exec) []byte {
				kernel, err := ParseKernel(x.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := Build(Config{Cores: 2, Interconnect: ic, Trace: true, Kernel: kernel},
					func(s *System, id int, port ocp.MasterPort) Master {
						p, err := core.Assemble(src)
						if err != nil {
							panic(err)
						}
						if id == 0 {
							port = pollPort{port}
						}
						d, err := core.NewDevice(p, port)
						if err != nil {
							panic(err)
						}
						return d
					})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range sys.Monitors {
					m.Record()
				}
				sys.Engine.Step() // both TGs assert their first read
				poller, sleeper := sys.Masters[0].(*core.Device), sys.Masters[1].(*core.Device)
				if w := poller.NextWake(1); w != 1 {
					t.Fatalf("%v: blocked master behind a non-waking wrapper wakes at %d, want 1 (poll)", x, w)
				}
				if w := sleeper.NextWake(1); w != sim.WakeNever {
					t.Fatalf("%v: blocked master behind its monitor wakes at %d, want WakeNever", x, w)
				}
				if _, err := sys.Run(10_000); err != nil {
					t.Fatal(err)
				}
				var out []byte
				for i, m := range sys.Monitors {
					if len(m.Events()) != 4 {
						t.Fatalf("%v: master %d completed %d of 4 transactions", x, i, len(m.Events()))
					}
					for _, e := range m.Events() {
						out = fmt.Appendf(out, "master %d %v assert %d accept %d resp %d\n", i, e.Cmd, e.Assert, e.Accept, e.Resp)
					}
				}
				return out
			})
		})
	}
}
