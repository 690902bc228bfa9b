package main

import (
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 7.5}, 0.625, 4.75, 8.875},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileIntNearestRank(t *testing.T) {
	vs := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	if got := quantileInt(vs, 0.5); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := quantileInt(vs, 0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if got := quantileInt(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricRule{bound: 0.1}
	higher := metricRule{higherBetter: true, bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name string
		b    []float64
		rule metricRule
		want string
	}{
		{"unchanged", shift(1), lower, verdictSame},
		{"slower beyond bound", shift(1.2), lower, verdictWorse},
		{"within bound", shift(1.05), lower, verdictSame},
		{"fewer per second beyond bound", shift(0.8), higher, verdictWorse},
		{"every run better", shift(0.8), lower, verdictBetter},
		{"too noisy to tell", []float64{50, 150, 100, 60, 140, 100, 130, 70, 100, 100}, lower, verdictUnresolved},
		{"no bound", shift(2), metricRule{}, verdictNoBound},
	}
	for _, c := range cases {
		if _, got := judge(base, c.b, c.rule); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
