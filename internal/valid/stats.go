package valid

import (
	"math"
	"sort"

	"noctg/internal/sweep"
)

// meanCI returns the sample mean and the half-width of the two-sided 95%
// Student-t confidence interval, reusing the t-quantile table that drives
// the adaptive sweep's CI stop rule.
func meanCI(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, math.Inf(1)
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, math.Inf(1)
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, sweep.TQuantile(n-1) * sd / math.Sqrt(float64(n))
}

// ksDistance returns the Kolmogorov–Smirnov statistic between the empirical
// distribution of integer-valued samples and an analytic CDF evaluated at
// integer support points. Both CDFs are right-continuous step functions
// jumping only at integers, so the supremum is attained next to an observed
// value: the analytic mass just below the jump, cdf(v−1), pairs with the
// empirical mass strictly below v, and cdf(v) with the mass including v
// (which also covers the plateau up to the next observed value).
func ksDistance(samples []uint64, cdf func(k float64) float64) float64 {
	if len(samples) == 0 {
		return math.Inf(1)
	}
	xs := make([]uint64, len(samples))
	copy(xs, samples)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := float64(len(xs))
	var d float64
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		lo := float64(i) / n // empirical mass strictly below the value
		hi := float64(j) / n // empirical mass up to and including it
		if v := math.Abs(cdf(float64(xs[i])-1) - lo); v > d {
			d = v
		}
		if v := math.Abs(cdf(float64(xs[i])) - hi); v > d {
			d = v
		}
		i = j
	}
	return d
}

// windowCounts buckets event times into consecutive windows of w cycles,
// dropping the ragged tail window. Times must be sorted ascending.
func windowCounts(times []uint64, w uint64) []float64 {
	if len(times) == 0 || w == 0 {
		return nil
	}
	t0 := times[0]
	span := times[len(times)-1] - t0
	n := int(span / w)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range times {
		i := int((t - t0) / w)
		if i < n {
			counts[i]++
		}
	}
	return counts
}

// idc returns the index of dispersion for counts: Var(N)/E[N]. A Poisson
// process gives 1; bursty processes give more, regular ones less.
func idc(counts []float64) float64 {
	if len(counts) < 2 {
		return math.NaN()
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	if mean == 0 {
		return math.NaN()
	}
	var ss float64
	for _, c := range counts {
		d := c - mean
		ss += d * d
	}
	return ss / float64(len(counts)-1) / mean
}

// linregSlope fits y = a + b·x by least squares and returns b.
func linregSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// aggVarHurst estimates the Hurst exponent of a count process by the
// aggregate-variance method: block-average the base-window counts at
// doubling aggregation levels m, regress log2 Var(X^(m)) on log2 m, and
// read H = 1 + slope/2. Long-range-dependent traffic decays slower than
// the slope −1 of independent counts (H = 0.5); H → 1 is maximally
// self-similar. Aggregation stops while at least minBlocks blocks remain,
// keeping the top-level variance estimate meaningful.
func aggVarHurst(counts []float64, minBlocks int) float64 {
	if minBlocks < 2 {
		minBlocks = 2
	}
	var lx, ly []float64
	for m := 1; len(counts)/m >= minBlocks; m *= 2 {
		blocks := len(counts) / m
		means := make([]float64, blocks)
		for b := 0; b < blocks; b++ {
			var s float64
			for i := b * m; i < (b+1)*m; i++ {
				s += counts[i]
			}
			means[b] = s / float64(m)
		}
		var mean float64
		for _, v := range means {
			mean += v
		}
		mean /= float64(blocks)
		var ss float64
		for _, v := range means {
			d := v - mean
			ss += d * d
		}
		v := ss / float64(blocks-1)
		if v <= 0 {
			break
		}
		lx = append(lx, math.Log2(float64(m)))
		ly = append(ly, math.Log2(v))
	}
	if len(lx) < 3 {
		return math.NaN()
	}
	return 1 + linregSlope(lx, ly)/2
}
