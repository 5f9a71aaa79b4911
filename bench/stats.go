package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it as a tail rather than as a maximum.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile p (0 < p ≤ 100) of xs: the
// smallest sample with at least p% of the samples at or below it. It is 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly past percentile p's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailReportable reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func tailReportable(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// quartiles returns the three quartile cut points with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so medians and spreads
// across runs match the ones computed by that function; q2 is the
// conventional median. Fewer than two samples give the single sample (or 0)
// for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
