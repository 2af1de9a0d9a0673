package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of the standard reporting percentiles that
// still leaves at least ten samples beyond it. With fewer than eleven samples
// no percentile qualifies and the median is the tail.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, p := range []struct {
		q    float64
		minN int // n*(1-q) >= 10
	}{{0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if n >= p.minN {
			best = p.q
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share of
// the median, computed as Python's statistics.quantiles(xs, n=4) does
// (exclusive method); this is the run-to-run spread the bounds are set from.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	q := func(p float64) float64 {
		pos := p * (n + 1)
		j := int(math.Floor(pos))
		d := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
