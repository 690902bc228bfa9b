package main

import (
	"slices"
)

// quantileInt returns the q-quantile of vs by the nearest-rank rule, 0 for
// an empty slice. It sorts vs in place.
func quantileInt(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of vs by
// the same rule as Python's statistics.quantiles(vs, n=4) (the "exclusive"
// method). A single value is its own quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
