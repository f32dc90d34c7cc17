package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantileBand is half the width of the band of order statistics a round's
// percentile is averaged over.
const quantileBand = 0.05

// percentile is the q-quantile (0 < q < 1) of an ascending slice, as the
// mean of the order statistics whose nearest rank lies within quantileBand
// of q. A fixed op mix has gaps (the two ops either side of sim-figs' median
// are 24 % apart), and a single order statistic there jumps from one op type
// to the next between runs; the band's mean moves smoothly.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := func(q float64) int { return min(n-1, max(0, int(math.Ceil(q*float64(n)-1e-9))-1)) }
	return mean(sorted[rank(q-quantileBand) : rank(q+quantileBand)+1])
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// highestPercentile is the rule that fixes which tail percentile a round of
// n ops may report: the highest of p50/p90/p99 that still has tailSamples
// samples beyond it. A 100-op round may report p90 and nothing higher.
func highestPercentile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99} {
		if float64(n)*(1-q) >= tailSamples-1e-9 {
			best = q
		}
	}
	return best
}

// relSpread is (max-min)/median, the single-run repeatability figure the
// self-check prints.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread the driver accepts a benchmark by (the
// exclusive method, as Python's statistics.quantiles(xs, n=4)).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if m := median(s); m != 0 {
		return (quart(3) - quart(1)) / m
	}
	return 0
}
