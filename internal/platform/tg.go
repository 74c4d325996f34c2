package platform

import (
	"fmt"

	"noctg/internal/core"
	"noctg/internal/ocp"
	"noctg/internal/stochastic"
)

// BuildTG assembles a platform driven by traffic-generator devices: master
// i executes programs[i]. This is the Figure 1(b) platform — same
// interconnect and slaves, TGs in place of the IP cores.
func BuildTG(cfg Config, programs []*core.Program) (*System, error) {
	if len(programs) != cfg.Cores {
		return nil, fmt.Errorf("platform: %d TG programs for %d cores", len(programs), cfg.Cores)
	}
	return Build(cfg, func(s *System, id int, port ocp.MasterPort) Master {
		d, err := core.NewDevice(programs[id], port)
		if err != nil {
			panic(fmt.Sprintf("platform: TG %d: %v", id, err))
		}
		return d
	})
}

// BuildClone assembles a platform driven by cloning replayers (the
// non-reactive baseline of Section 3, stochastic.NewClone): master i
// replays events[i] at absolute timestamps.
func BuildClone(cfg Config, events [][]ocp.Event) (*System, error) {
	if len(events) != cfg.Cores {
		return nil, fmt.Errorf("platform: %d clone traces for %d cores", len(events), cfg.Cores)
	}
	return Build(cfg, func(s *System, id int, port ocp.MasterPort) Master {
		return stochastic.NewClone(id, events[id], port)
	})
}
