package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// the benchmark reports it.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the interpolated median; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile (0.5 < q < 1) and
// refuses when fewer than minBeyond samples lie beyond it: a p95 over
// 120 samples rests on six values and is not reported.
func tailPercentile(xs []float64, q float64) (float64, error) {
	if !(q > 0.5 && q < 1) {
		return 0, fmt.Errorf("tail percentile %g outside (0.5, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns Q1, Q2 and Q3 by the same arithmetic as Python's
// statistics.quantiles(values, n=4) (the exclusive method, including its
// extrapolation for very small samples).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	var q [n - 1]float64
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance over the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
