// Package stats provides the small statistical toolkit the experiment
// harness uses to turn batch telemetry into the paper's tables and figures:
// summary statistics, least-squares fits, histograms, and percentiles.
//
// Every product that feeds an add or subtract is wrapped in an explicit
// float64(...) conversion. The conversion rounds the product, which
// forbids the compiler from fusing the two into one multiply-add: arm64,
// ppc64le, s390x and riscv64 builds would otherwise round once where
// amd64 rounds twice, and print different digits. scripts/fmacheck.sh
// checks the compiled code.
package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics reported in the paper's tables
// (e.g. Table 2 and Table 3 report Avg/Std. Dev./Min./Max.).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	// Population standard deviation: the paper reports spread over the
	// full set of observed batches, not a sample estimate.
	s.StdDev = math.Sqrt(ss / float64(s.N))
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit is a least-squares line y = Slope*x + Intercept, with the
// coefficient of determination R2. Figure 6 reports such best fits of batch
// time against migrated bytes.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the least-squares fit of ys against xs. It panics if the
// slices differ in length, and returns a zero fit for fewer than two points
// or degenerate (constant-x) input.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLine length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += float64(xs[i] * xs[i])
		sxy += float64(xs[i] * ys[i])
		syy += float64(ys[i] * ys[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return LinearFit{}
	}
	f := LinearFit{}
	f.Slope = (float64(n*sxy) - float64(sx*sy)) / den
	f.Intercept = (sy - float64(f.Slope*sx)) / n
	ssTot := syy - sy*sy/n
	if ssTot > 0 {
		var ssRes float64
		for i := range xs {
			r := ys[i] - (float64(f.Slope*xs[i]) + f.Intercept)
			ssRes += float64(r * r)
		}
		f.R2 = 1 - ssRes/ssTot
	}
	return f
}

// Fit2 is a least-squares plane y = B1*x1 + B2*x2 + Intercept.
type Fit2 struct {
	B1, B2    float64
	Intercept float64
}

// FitPlane solves the two-predictor least-squares problem by normal
// equations. Figure 10's analysis uses it to separate the per-byte and
// per-VABlock components of batch cost. Degenerate systems return a zero
// fit. It panics on length mismatch.
func FitPlane(x1, x2, ys []float64) Fit2 {
	if len(x1) != len(ys) || len(x2) != len(ys) {
		panic("stats: FitPlane length mismatch")
	}
	n := float64(len(ys))
	if len(ys) < 3 {
		return Fit2{}
	}
	var s1, s2, sy, s11, s22, s12, s1y, s2y float64
	for i := range ys {
		s1 += x1[i]
		s2 += x2[i]
		sy += ys[i]
		s11 += float64(x1[i] * x1[i])
		s22 += float64(x2[i] * x2[i])
		s12 += float64(x1[i] * x2[i])
		s1y += float64(x1[i] * ys[i])
		s2y += float64(x2[i] * ys[i])
	}
	// Solve the 3x3 normal equations via Cramer's rule:
	// | s11 s12 s1 | |B1|   |s1y|
	// | s12 s22 s2 | |B2| = |s2y|
	// | s1  s2  n  | |I |   |sy |
	det := det3(s11, s12, s1, s12, s22, s2, s1, s2, n)
	if det == 0 {
		return Fit2{}
	}
	d1 := det3(s1y, s12, s1, s2y, s22, s2, sy, s2, n)
	d2 := det3(s11, s1y, s1, s12, s2y, s2, s1, sy, n)
	d3 := det3(s11, s12, s1y, s12, s22, s2y, s1, s2, sy)
	return Fit2{B1: d1 / det, B2: d2 / det, Intercept: d3 / det}
}

// det3 returns the determinant of the 3x3 matrix with rows (a b c),
// (d e f) and (g h i), expanded along the first row.
func det3(a, b, c, d, e, f, g, h, i float64) float64 {
	return float64(a*det2(e, f, h, i)) - float64(b*det2(d, f, g, i)) + float64(c*det2(d, e, g, h))
}

// det2 returns the determinant a·d − b·c of the 2x2 matrix with rows
// (a b) and (c d).
func det2(a, b, c, d float64) float64 { return float64(a*d) - float64(b*c) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// GroupBy buckets values by an integer key, preserving insertion order of
// first appearance. The experiment harness uses it to group batch records
// (e.g. by eviction count for Figure 13's cost levels).
func GroupBy(keys []int, values []float64) (order []int, groups map[int][]float64) {
	if len(keys) != len(values) {
		panic("stats: GroupBy length mismatch")
	}
	groups = make(map[int][]float64)
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], values[i])
	}
	return order, groups
}
