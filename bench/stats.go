package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100) and the sample count it rests on: the smallest value with at
// least p% of the samples at or below it. It sorts xs in place. An empty
// sample gives (0, 0).
func percentile(xs []time.Duration, p float64) (time.Duration, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs)
}

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method Python's statistics.quantiles(xs, n=4) uses, so
// spreads computed here and by that function agree. It sorts xs in
// place; fewer than two values give NaNs.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	slices.Sort(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (xs[j-1]*(n-delta) + xs[j]*delta) / n
	}
	return q(1), q(3)
}
