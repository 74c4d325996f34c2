package sweep

import (
	"strings"
	"testing"

	"noctg/internal/guard"
)

// FuzzParseGrid: arbitrary bytes must never panic the grid loader, and an
// accepted grid must run: every stochastic point, built and run for one
// cycle, may fail with an error but never with a panic. The seeds include
// the hostile files that used to run at the wrong load, report empty ok
// points, panic a worker, fail at bus attach or exhaust memory.
func FuzzParseGrid(f *testing.F) {
	const w = `"kind":"stochastic","dist":"poisson","cores":2`
	for _, src := range []string{
		`{"workloads":[{` + w + `,"count":100}],"fabrics":[{"interconnect":"amba"},{"interconnect":"xpipes","mesh_width":4,"mesh_height":2}]}`,
		`{"workloads":[{"kind":"stochastic","dist":"uniform","cores":4,"pattern":"hotspot","pattern_w":2,"pattern_h":2,"hotspot":[0,0,0.6]}],` +
			`"fabrics":[{"interconnect":"xpipes","topology":"torus","buffer_flits":2}],"measure":{"warmup_cycles":10,"epoch_cycles":20}}`,
		`{"workloads":[{` + w + `,"arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}],"fabrics":[{"interconnect":"amba"}]}`,
		`{"workloads":[{` + w + `,"mean_gap":-4}],"fabrics":[{"interconnect":"amba"}]}`,
		`{"workloads":[{` + w + `,"count":-7}],"fabrics":[{"interconnect":"amba"}]}`,
		`{"workloads":[{` + w + `}],"fabrics":[{"interconnect":"xpipes","buffer_flits":-3}]}`,
		`{"workloads":[{` + w + `}],"fabrics":[{"interconnect":"xpipes","mesh_width":-2,"mesh_height":4}]}`,
		`{"workloads":[{"kind":"stochastic","dist":"poisson","cores":113}],"fabrics":[{"interconnect":"amba"}]}`,
		`{"workloads":[{` + w + `}],"fabrics":[{"interconnect":"xpipes","buffer_flits":100000000}]}`,
		`{"workloads":[{` + w + `}],"fabrics":[{"interconnect":"xpipes","mesh_width":1024,"mesh_height":1024}]}`,
		`{"workloads":[{` + w + `}],"fabrics":[{"interconnect":"xpipes","mesh_width":1,"mesh_height":0}]}`,
		`{"workloads":[{` + w + `,"mean_gap":1e308}],"fabrics":[{"interconnect":"amba"}],"clock_periods_ns":[0]}`,
		`{"workloads":[],"fabrics":[]}`,
		`{"workloads":[{`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseGrid(strings.NewReader(src))
		if err != nil {
			return
		}
		noPanics(t, src, g.Expand())
	})
}

// noPanics runs the stochastic points among pts for one cycle each and
// fails on any result that carries a panic violation.
func noPanics(t *testing.T, src string, pts []Point) {
	t.Helper()
	var stoch []Point
	for _, p := range pts {
		if p.Workload.Kind == KindStochastic {
			stoch = append(stoch, p)
		}
	}
	res, err := Runner{Workers: 1, MaxCycles: 1}.Run(stoch)
	if err != nil {
		t.Fatalf("accepted grid fails to run: %v\n%s", err, src)
	}
	for _, r := range res {
		if r.Violation != nil && r.Violation.Kind == guard.KindPanic {
			t.Fatalf("accepted grid panics point %d: %s\n%s", r.ID, r.Err, src)
		}
	}
}
