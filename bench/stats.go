package main

import (
	"math"
	"slices"
)

// percentile returns the exact p-quantile (0 ≤ p ≤ 1) of an ascending sample
// by the nearest-rank rule: the smallest value with at least p·n samples at
// or below it. Nothing is interpolated or bucketed, so the result is always
// a latency that was actually observed.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle of xs (mean of the two middle values for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does — the
// rule the benchmark contract's spread check uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4 // taken after clamping, so two values extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise measure of the contract.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// minSamples is the sample floor of a window: with 100 samples p90 has ten
// beyond it.
const minSamples = 100

// windowStats summarises every op of one measurement window. Nothing is left
// out: a stall the program causes itself — a collector burst, an eviction
// storm, a coalescer wait — counts exactly as one the machine causes.
type windowStats struct {
	samples int
	opsPerS float64
	p50us   float64
	p90us   float64
	p99us   float64 // fewer than ten samples beyond it below 1000
	maxUs   float64
	meanUs  float64
}

// summarise computes windowStats from the latencies (ns) each caller
// recorded over a window of the given length (ns).
func summarise(callers []*recorder, window int64) windowStats {
	var all []int64
	var sum int64
	for _, r := range callers {
		all = append(all, r.lat...)
		for _, l := range r.lat {
			sum += l
		}
	}
	n := len(all)
	ws := windowStats{samples: n}
	if n == 0 || window <= 0 {
		return ws
	}
	slices.Sort(all)
	ws.opsPerS = float64(n) / (float64(window) / 1e9)
	ws.p50us = float64(percentile(all, 0.50)) / 1e3
	ws.p90us = float64(percentile(all, 0.90)) / 1e3
	ws.p99us = float64(percentile(all, 0.99)) / 1e3
	ws.maxUs = float64(all[n-1]) / 1e3
	ws.meanUs = float64(sum) / float64(n) / 1e3
	return ws
}
