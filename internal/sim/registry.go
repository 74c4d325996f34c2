package sim

import "fmt"

// Counter is a zero-allocation monotonic event counter. Devices own their
// counters as plain struct fields (the hot path is a single integer add)
// and register the addresses with a Registry once at construction; the
// registry then drives epoch Reset/Snapshot at measurement-phase
// boundaries without the devices knowing phases exist.
//
// The underlying type is uint64, so legacy code that exposed raw counter
// fields (per-master grant counts, instruction counters) keeps compiling
// with ++ / += and untyped-constant comparisons.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// Reset zeroes the counter (epoch boundary).
func (c *Counter) Reset() { *c = 0 }

// StatsSource is implemented by devices that export metrics through a
// Registry. RegisterStats must be called once, after the device's
// topology is final (all ports attached, all slaves mapped): registration
// captures metric addresses, so growing a counter slice afterwards would
// orphan them.
type StatsSource interface {
	RegisterStats(r *Registry)
}

// Registry is the unified stats registry of one simulated system: every
// device registers its counters and histograms once, under a
// slash-separated hierarchical name, and measurement code manipulates the
// whole population at deterministic phase boundaries — Sync to settle
// lazily-credited accounting, Snapshot to capture an epoch, Reset to open
// the next one. The registry is strictly observational: resetting or
// snapshotting never changes simulated behaviour, only what the metrics
// report.
//
// Registration (name strings, map inserts) allocates; the metric hot
// paths (Counter.Add, Histogram.Observe) never do — the registry holds
// addresses of device-owned metrics and touches them only at boundaries.
type Registry struct {
	prefix string
	d      *registryData
}

type registryData struct {
	counters []regMetric[*Counter]
	hists    []regMetric[*Histogram]
	names    map[string]struct{}
	syncs    []func(now uint64)
}

type regMetric[T any] struct {
	name string
	m    T
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{d: &registryData{names: make(map[string]struct{})}}
}

// Scope returns a view of the registry that prefixes every registered
// name with prefix + "/". Scoped views share the underlying registry:
// Sync/Reset/Snapshot on any view operate on the whole population.
func (r *Registry) Scope(prefix string) *Registry {
	return &Registry{prefix: r.prefix + prefix + "/", d: r.d}
}

func (r *Registry) claim(name string) string {
	full := r.prefix + name
	if _, dup := r.d.names[full]; dup {
		panic(fmt.Sprintf("sim: duplicate metric registration %q", full))
	}
	r.d.names[full] = struct{}{}
	return full
}

// RegisterCounter registers a device-owned counter under name.
// Registering the same full name twice panics (a wiring bug).
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if c == nil {
		panic("sim: RegisterCounter(nil)")
	}
	r.d.counters = append(r.d.counters, regMetric[*Counter]{name: r.claim(name), m: c})
}

// RegisterHistogram registers a device-owned histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if h == nil {
		panic("sim: RegisterHistogram(nil)")
	}
	r.d.hists = append(r.d.hists, regMetric[*Histogram]{name: r.claim(name), m: h})
}

// OnSync registers a settlement hook. Devices that account lazily in bulk
// (the bus's jumped-span busy/idle credit and wait-cycle credit) register one
// so that Sync(now) can fold the pending tail into the counters before a
// boundary snapshot or reset — otherwise cycles belonging to one epoch
// would be credited into the next.
func (r *Registry) OnSync(fn func(now uint64)) {
	if fn == nil {
		panic("sim: OnSync(nil)")
	}
	r.d.syncs = append(r.d.syncs, fn)
}

// Sync settles all lazily-credited accounting through cycle now-1 (the
// last completed cycle). Call it at every phase boundary before Snapshot
// or Reset, with now = the engine's current cycle.
func (r *Registry) Sync(now uint64) {
	for _, fn := range r.d.syncs {
		fn(now)
	}
}

// Reset zeroes every registered metric, opening a new measurement epoch.
// Purely observational: device behaviour never depends on metric values.
func (r *Registry) Reset() {
	for _, c := range r.d.counters {
		c.m.Reset()
	}
	for _, h := range r.d.hists {
		h.m.Reset()
	}
}

// Counters returns the number of registered counters (diagnostics).
func (r *Registry) Counters() int { return len(r.d.counters) }

// RegistrySnapshot is an immutable, serialisable capture of every
// registered metric. Map keys serialise in sorted order (encoding/json),
// so two identical simulations snapshot to identical bytes.
type RegistrySnapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric's current value. Callers
// measuring an epoch should Sync first.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{Counters: r.CounterSnapshot()}
	if len(r.d.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.d.hists))
		for _, h := range r.d.hists {
			s.Histograms[h.name] = h.m.Snapshot()
		}
	}
	return s
}

// CounterSnapshot captures only the registered counters, without the
// histogram copies a full Snapshot makes — the per-epoch breakdown path
// runs at every epoch boundary and wants just the counter map.
func (r *Registry) CounterSnapshot() map[string]uint64 {
	if len(r.d.counters) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(r.d.counters))
	for _, c := range r.d.counters {
		out[c.name] = c.m.Value()
	}
	return out
}
