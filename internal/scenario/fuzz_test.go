package scenario

import (
	"strings"
	"testing"

	"noctg/internal/guard"
	"noctg/internal/sweep"
)

// FuzzParse: arbitrary bytes must never panic the scenario loader —
// malformed topology sizes, unknown patterns and hotspot weights past unit
// mass are errors, and every accepted scenario must survive validation and
// grid compilation, and run: each of its points, built and run for one
// cycle, may fail with an error but never with a panic.
func FuzzParse(f *testing.F) {
	f.Add(validSpecJSON())
	f.Add("[" + validSpecJSON() + "]")
	f.Add(`{"name":"h","fabric":"amba","width":2,"height":2,"pattern":"hotspot","hotspot":[0.5,0.6]}`)
	f.Add(`{"name":"x","fabric":"xpipes","topology":"ring","width":2,"height":2,"pattern":"uniform"}`)
	f.Add(`{"name":"x","fabric":"xpipes","width":-1,"height":1099511627776,"pattern":"uniform"}`)
	f.Add(`{"name":"x","fabric":"amba","width":3,"height":3,"pattern":"bitrev"}`)
	f.Add(`{"name":"x","fabric":"amba","width":4,"height":2,"pattern":"transpose","mean_gaps":[1e308,0,-5]}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":1,"pattern":"uniform","hotspot":[0.1]}`)
	f.Add(`[{},{},{}]`)
	f.Add(`{"name":"x"`)
	// Arrival-axis corpus: valid MMPP, valid self-similar, and malformed
	// variants (typo'd key, conflicting load axis, out-of-range Hurst,
	// NaN-shaped numbers, oversized chains).
	f.Add(`{"name":"b","fabric":"amba","width":2,"height":2,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}`)
	f.Add(`{"name":"b","fabric":"amba","width":2,"height":2,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[4,16],"dwells":[100,200],"dwell_dist":"det"}}`)
	f.Add(`{"name":"s","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","arrival":{"process":"selfsim","sources":8,"hurst":0.8,"on_mean":50,"off_mean":100,"peak_gap":4}}`)
	f.Add(`{"name":"p","fabric":"amba","width":2,"height":2,"pattern":"transpose","classes":[0.5,0.3,0.2]}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","arival":{"process":"mmpp"}}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","mean_gaps":[8],"arrival":{"process":"mmpp","gaps":[3,0],"dwells":[80,160]}}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","arrival":{"process":"selfsim","sources":8,"hurst":1.5,"on_mean":50,"off_mean":100,"peak_gap":4}}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[1e308,0],"dwells":[80,1e-9]}}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","arrival":{"process":"mmpp","gaps":[1,2,3,4,5,6,7,8,9],"dwells":[1,2,3,4,5,6,7,8,9]}}`)
	f.Add(`{"name":"x","fabric":"amba","width":2,"height":2,"pattern":"uniform","classes":[1e308,1e308]}`)
	// Bounds shared with the grid loader: over the core, mesh and buffer
	// limits, and negative fabric geometry.
	f.Add(`{"name":"x","fabric":"xpipes","width":16,"height":8,"pattern":"uniform"}`)
	f.Add(`{"name":"x","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","mesh_width":1024,"mesh_height":1024}`)
	f.Add(`{"name":"x","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","buffer_flits":100000000}`)
	f.Add(`{"name":"x","fabric":"xpipes","width":2,"height":2,"pattern":"uniform","buffer_flits":-3,"mesh_width":-2}`)
	f.Fuzz(func(t *testing.T, src string) {
		specs, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted scenarios must compile into runnable grids: the loader
		// promised they are valid.
		pts, err := Points(specs)
		if err != nil {
			t.Fatalf("accepted scenarios fail to expand: %v\n%s", err, src)
		}
		if len(pts) == 0 {
			t.Fatalf("accepted scenarios expand to no points:\n%s", src)
		}
		res, err := sweep.Runner{Workers: 1, MaxCycles: 1}.Run(pts)
		if err != nil {
			t.Fatalf("accepted scenarios fail to run: %v\n%s", err, src)
		}
		for _, r := range res {
			if r.Violation != nil && r.Violation.Kind == guard.KindPanic {
				t.Fatalf("accepted scenarios panic point %d: %s\n%s", r.ID, r.Err, src)
			}
		}
	})
}
