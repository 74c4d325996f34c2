package noc

import "fmt"

// NumPorts is the per-router port count (N, E, S, W, local): a Hop's Port
// is below it and prints with PortName.
const NumPorts = numPorts

// PortName returns the compass name of a router output port.
func PortName(p int) string {
	switch p {
	case portN:
		return "N"
	case portE:
		return "E"
	case portS:
		return "S"
	case portW:
		return "W"
	case portL:
		return "L"
	}
	return fmt.Sprintf("port(%d)", p)
}

// FlitCounts returns the request and response packet lengths in flits for
// a transaction of the given kind and burst — the lengths the live NIs
// build, exported so channel-load enumeration weighs each route by the true
// flit volume. A request is a header and an address flit plus one payload
// flit per written word; a read's response a header and a status flit plus
// one flit per word read. Writes are posted: their response length is 0
// because no response packet crosses the fabric.
func FlitCounts(write bool, burst int) (req, resp int) {
	if write {
		return 2 + burst, 0
	}
	return 2, 2 + burst
}

// Hop is one step of a route: the router and the output port its flits
// leave through. The final hop of every route is (dst, PortL) — the
// ejection into the destination node's network interface.
type Hop struct {
	Node int
	Port int
}

// dorPort is the fabric's one routing decision, shared by the live routers
// (router.route) and the route enumeration below (nextPort, Route,
// RouteLen), so analytic channel loads always come from the paths the
// simulated fabric uses. A packet at router (x, y) of a w×h grid headed to
// node dst takes dimension-ordered routing: X first then Y on the mesh,
// the shorter way around each ring on the torus — a tie at exactly half
// the ring goes east/south, so every router along the path agrees on the
// direction. It returns portL at the destination.
func dorPort(topo Topology, w, h, x, y, dst int) int {
	return dorStep(topo, w, h, (dst%w)-x, (dst/w)-y)
}

// dorStep is dorPort on the offset (dx, dy) from the current router to the
// destination, |dx| < w and |dy| < h. The routers call it directly: they
// know every node's coordinates, so the per-flit path divides nothing.
func dorStep(topo Topology, w, h, dx, dy int) int {
	if topo == Torus {
		if dx != 0 {
			if dx < 0 {
				dx += w // hops going east
			}
			if 2*dx <= w {
				return portE
			}
			return portW
		}
		if dy != 0 {
			if dy < 0 {
				dy += h // hops going south
			}
			if 2*dy <= h {
				return portS
			}
			return portN
		}
		return portL
	}
	switch {
	case dx > 0:
		return portE
	case dx < 0:
		return portW
	case dy > 0:
		return portS
	case dy < 0:
		return portN
	}
	return portL
}

// nextPort is dorPort from a node index, on an already-defaulted Config.
func (c Config) nextPort(cur, dst int) int {
	return dorPort(c.Topology, c.Width, c.Height, cur%c.Width, cur/c.Width, dst)
}

// step returns the router one hop from cur through port p (wrap-aware).
func (c Config) step(cur, p int) int {
	w, h := c.Width, c.Height
	x, y := cur%w, cur/w
	switch p {
	case portE:
		x = (x + 1) % w
	case portW:
		x = (x - 1 + w) % w
	case portS:
		y = (y + 1) % h
	case portN:
		y = (y - 1 + h) % h
	}
	return y*w + x
}

// Route appends the src→dst hop sequence to path and returns it. Every
// directed link the packet's flits traverse appears once: each
// intermediate (router, output-port) pair plus the final (dst, PortL)
// ejection. src == dst yields the single ejection hop. The injection link
// (NI into src's local input port) is implicit — it is a per-node
// resource, not a router output.
func (c Config) Route(src, dst int, path []Hop) []Hop {
	c = c.WithDefaults()
	cur := src
	for {
		p := c.nextPort(cur, dst)
		path = append(path, Hop{Node: cur, Port: p})
		if p == portL {
			return path
		}
		cur = c.step(cur, p)
	}
}

// RouteLen returns the hop distance from src to dst (router-to-router
// link traversals, excluding the local ejection).
func (c Config) RouteLen(src, dst int) int {
	c = c.WithDefaults()
	n := 0
	for cur := src; cur != dst; n++ {
		cur = c.step(cur, c.nextPort(cur, dst))
	}
	return n
}
