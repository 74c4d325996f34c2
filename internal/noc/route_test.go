package noc

import "testing"

// TestRouteMatchesRouter is the table test of dorPort, the one routing
// decision behind both the live router and the exported route enumerator:
// hand-computed ports on open grids and on even and odd rings, each also
// read back through router.route and Config.nextPort so neither caller can
// grow logic of its own.
func TestRouteMatchesRouter(t *testing.T) {
	cases := []struct {
		topo     Topology
		w, h     int
		cur, dst int
		want     int
	}{
		{Mesh, 4, 3, 5, 5, portL},
		{Mesh, 4, 3, 5, 6, portE},
		{Mesh, 4, 3, 5, 4, portW},
		{Mesh, 4, 3, 5, 1, portN},
		{Mesh, 4, 3, 5, 9, portS},
		{Mesh, 4, 3, 5, 2, portE},  // X before Y
		{Mesh, 4, 3, 5, 8, portW},  // X before Y
		{Mesh, 4, 3, 0, 3, portE},  // no wrap on the open grid
		{Mesh, 4, 3, 0, 8, portS},  // no wrap on the open grid
		{Mesh, 1, 5, 0, 4, portS},  // degenerate column
		{Torus, 4, 4, 0, 1, portE}, // one hop east
		{Torus, 4, 4, 0, 3, portW}, // wrap west is 1 hop, east is 3
		{Torus, 4, 4, 3, 0, portE}, // wrap east is 1 hop
		{Torus, 4, 4, 0, 2, portE}, // tie at half the even ring goes east
		{Torus, 4, 4, 2, 0, portE}, // ... from either side
		{Torus, 4, 4, 0, 12, portN},
		{Torus, 4, 4, 12, 0, portS},
		{Torus, 4, 4, 0, 8, portS},  // vertical tie goes south
		{Torus, 4, 4, 1, 11, portE}, // X before Y
		{Torus, 4, 4, 5, 5, portL},
		{Torus, 5, 3, 0, 2, portE}, // odd ring: 2 east beats 3 west
		{Torus, 5, 3, 0, 3, portW}, // odd ring: 2 west beats 3 east
		{Torus, 5, 3, 0, 10, portN},
		{Torus, 5, 3, 10, 0, portS},
		{Torus, 2, 2, 0, 1, portE}, // two-node ring: always the tie
		{Torus, 2, 2, 1, 0, portE},
		{Torus, 2, 2, 0, 2, portS},
	}
	nets := map[Config]*Network{}
	for _, tc := range cases {
		if got := dorPort(tc.topo, tc.w, tc.h, tc.cur%tc.w, tc.cur/tc.w, tc.dst); got != tc.want {
			t.Errorf("%v %dx%d: dorPort(%d -> %d) = %s, want %s",
				tc.topo, tc.w, tc.h, tc.cur, tc.dst, PortName(got), PortName(tc.want))
		}
		cfg := Config{Width: tc.w, Height: tc.h, Topology: tc.topo}
		if got := cfg.WithDefaults().nextPort(tc.cur, tc.dst); got != tc.want {
			t.Errorf("%v %dx%d: nextPort(%d, %d) = %s, want %s",
				tc.topo, tc.w, tc.h, tc.cur, tc.dst, PortName(got), PortName(tc.want))
		}
		if nets[cfg] == nil {
			nets[cfg] = New(cfg, func() uint64 { return 0 })
		}
		if got := nets[cfg].routers[tc.cur].route(headTo(nets[cfg], tc.dst)); got != tc.want {
			t.Errorf("%v %dx%d: router %d route(%d) = %s, want %s",
				tc.topo, tc.w, tc.h, tc.cur, tc.dst, PortName(got), PortName(tc.want))
		}
	}
	// The zero Config routes on its 4x3 default grid.
	if got := (Config{}).WithDefaults().nextPort(0, 11); got != portE {
		t.Errorf("zero Config nextPort(0, 11) = %s, want E", PortName(got))
	}
}

// TestRouteTerminates walks every pair and checks the enumerated route
// ends with the local ejection at dst and is cycle-free.
func TestRouteTerminates(t *testing.T) {
	for _, topo := range []Topology{Mesh, Torus} {
		cfg := Config{Width: 4, Height: 3, Topology: topo}.WithDefaults()
		nodes := cfg.Width * cfg.Height
		var path []Hop
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				path = cfg.Route(src, dst, path[:0])
				if len(path) > nodes+1 {
					t.Fatalf("%v: route %d->%d has %d hops", topo, src, dst, len(path))
				}
				last := path[len(path)-1]
				if last.Node != dst || last.Port != portL {
					t.Fatalf("%v: route %d->%d ends at node %d port %s",
						topo, src, dst, last.Node, PortName(last.Port))
				}
				if got, want := len(path)-1, cfg.RouteLen(src, dst); got != want {
					t.Fatalf("%v: route %d->%d: %d link hops, RouteLen says %d", topo, src, dst, got, want)
				}
			}
		}
	}
}

// TestRouteLenMesh pins hand-computed mesh distances: DOR on an open grid
// is the Manhattan metric.
func TestRouteLenMesh(t *testing.T) {
	cfg := Config{Width: 4, Height: 3}
	cases := []struct{ src, dst, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 11, 5}, {3, 8, 5}, {5, 6, 1},
	}
	for _, c := range cases {
		if got := cfg.RouteLen(c.src, c.dst); got != c.want {
			t.Errorf("RouteLen(%d, %d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	// Torus wrap: 0 -> 3 on a width-4 ring is one west hop, not three east.
	tor := Config{Width: 4, Height: 3, Topology: Torus}
	if got := tor.RouteLen(0, 3); got != 1 {
		t.Errorf("torus RouteLen(0, 3) = %d, want 1", got)
	}
	if got := tor.RouteLen(0, 8); got != 1 {
		t.Errorf("torus RouteLen(0, 8) = %d, want 1", got)
	}
}
