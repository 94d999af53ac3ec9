package main

import (
	"math"
	"sort"

	"vanetsim/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Summarize(xs).Mean
}

// minimum and maximum return the extremes of xs, or NaN for no samples.
func minimum(xs []float64) float64 { return stats.Percentile(xs, 0) }
func maximum(xs []float64) float64 { return stats.Percentile(xs, 100) }

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so a spread printed here matches the one the acceptance check computes.
// stats.Percentile interpolates inclusively and gives other quartiles for
// small samples, hence this separate method. Fewer than two samples have
// no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// tailLadder is the set of percentiles the report's tail latency is chosen
// from. It stops at p99: with the service-mix run's quarter of a million
// hits, p99.9 moves with every GC pause and every miss simulating beside a
// hit, and spread over a quarter of its median from run to run on the
// reference host.
var tailLadder = []float64{0.5, 0.9, 0.99}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it. Below twenty samples not even
// the median qualifies; the median is returned and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if math.Floor(float64(n)*(1-q)+1e-9) < 10 {
			break
		}
		p, ok = q, true
	}
	return p, ok
}
