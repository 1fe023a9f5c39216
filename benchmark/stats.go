package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so an
// inter-quartile spread computed here agrees with the one the driver computes
// over a set of runs. v is not modified. Fewer than two values have no spread:
// all three results are the single value (or 0 for none).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// percentile returns the p-th percentile (0 < p <= 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least a share p of the
// samples at or below it. An empty slice gives 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// ratio is a/b with 0 for an empty base, for per-transaction counter metrics
// on workloads where the base can legitimately be zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
