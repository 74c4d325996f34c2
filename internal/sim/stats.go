package sim

import (
	"fmt"
	"sort"
)

// LatencyBounds is the canonical transaction-latency bucket set (cycles)
// used by every latency histogram in the repository. Sharing one shape is
// what lets per-master and per-epoch histograms merge exactly.
var LatencyBounds = []uint64{4, 8, 16, 32, 64, 128, 256}

// NewLatencyHistogram builds a histogram with the canonical latency
// buckets.
func NewLatencyHistogram() *Histogram { return NewHistogram(LatencyBounds...) }

// Histogram is a fixed-bucket latency histogram. Bucket i counts samples v
// with bounds[i-1] <= v < bounds[i]; the last bucket is unbounded above.
type Histogram struct {
	bounds []uint64
	counts []uint64
	n      uint64
	sum    uint64
	max    uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. An extra overflow bucket is always appended.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("sim: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest observed sample (zero when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of the samples (zero when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Buckets returns copies of the bucket bounds and counts (the final count is
// the overflow bucket).
func (h *Histogram) Buckets() (bounds []uint64, counts []uint64) {
	return append([]uint64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// Reset discards all observed samples, keeping the bucket bounds. The
// stats registry calls it at measurement-epoch boundaries.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.n = 0
	h.sum = 0
	h.max = 0
}

// Merge folds every sample of o into h. Both histograms must share the
// same bucket bounds (merging across shapes would misattribute counts).
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic(fmt.Sprintf("sim: merging histograms with %d and %d bounds", len(h.bounds), len(o.bounds)))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			panic("sim: merging histograms with different bounds")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
