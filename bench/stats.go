package main

import (
	"math"
	"sort"
)

// timing summarises one per-op measurement of a run.
type timing struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func newTiming(samples []float64) timing {
	q1, med, q3 := quartiles(samples)
	return timing{Samples: samples, Median: med, Q1: q1, Q3: q3, N: len(samples)}
}

// quartiles returns the three cut points of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the JSON in Python. The
// middle value is the median. An empty input, which only a failed worker
// leaves, gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle cut point of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// relSpread is the interquartile range as a share of the median.
func (t timing) relSpread() float64 {
	if t.Median == 0 {
		return 0
	}
	return (t.Q3 - t.Q1) / math.Abs(t.Median)
}
