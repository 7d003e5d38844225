package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p95 rests on at least 200 samples, a p99 on at least 1000.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses a percentile with fewer than minBeyond
// samples above it, so a tail figure is never a handful of outliers.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	if q > 0.5 {
		if beyond := float64(n) * (1 - q); beyond+1e-9 < minBeyond { // 1e-9: 100·(1-0.9) is 9.999…
			return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d samples", 100*q, minBeyond, n)
		}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the middle value (the mean of the two middle values for
// an even count). Throughputs are reported as the median across rounds, so
// one round slowed by the host does not move the figure.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
