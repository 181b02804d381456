package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !approx(s.StdDev, 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Fatalf("min/max/sum = %v/%v/%v", s.Min, s.Max, s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatal("empty Summarize not zero")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.StdDev != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	f := FitLine(xs, ys)
	if !approx(f.Slope, 3, 1e-9) || !approx(f.Intercept, 7, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
	if !approx(f.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	f := FitLine(xs, ys)
	if f.Slope < 1.8 || f.Slope > 2.2 {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if f := FitLine([]float64{5, 5, 5}, []float64{1, 2, 3}); f.Slope != 0 {
		t.Error("constant-x fit should be zero")
	}
	if f := FitLine([]float64{1}, []float64{1}); f.Slope != 0 {
		t.Error("single-point fit should be zero")
	}
}

func TestFitLinePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitLine([]float64{1, 2}, []float64{1})
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("p25 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestGroupBy(t *testing.T) {
	order, groups := GroupBy([]int{2, 1, 2, 3, 1}, []float64{10, 20, 30, 40, 50})
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if len(groups[2]) != 2 || groups[2][0] != 10 || groups[2][1] != 30 {
		t.Fatalf("groups[2] = %v", groups[2])
	}
	if len(groups[3]) != 1 || groups[3][0] != 40 {
		t.Fatalf("groups[3] = %v", groups[3])
	}
}

func TestGroupByPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GroupBy([]int{1}, []float64{1, 2})
}

// Property: Min <= Mean <= Max and StdDev >= 0 for any non-empty input.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitLine on exactly linear data recovers the line.
func TestFitLineRecoversLine(t *testing.T) {
	f := func(slope, intercept int8) bool {
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = float64(slope)*x + float64(intercept)
		}
		fit := FitLine(xs, ys)
		return approx(fit.Slope, float64(slope), 1e-6) &&
			approx(fit.Intercept, float64(intercept), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitPlaneExact(t *testing.T) {
	// y = 2*x1 + 5*x2 + 3
	var x1, x2, ys []float64
	for i := 0; i < 20; i++ {
		a := float64(i % 7)
		b := float64((i * 3) % 5)
		x1 = append(x1, a)
		x2 = append(x2, b)
		ys = append(ys, 2*a+5*b+3)
	}
	f := FitPlane(x1, x2, ys)
	if !approx(f.B1, 2, 1e-6) || !approx(f.B2, 5, 1e-6) || !approx(f.Intercept, 3, 1e-6) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitPlaneDegenerate(t *testing.T) {
	// x2 constant: singular system -> zero fit.
	f := FitPlane([]float64{1, 2, 3}, []float64{5, 5, 5}, []float64{1, 2, 3})
	if f.B1 != 0 || f.B2 != 0 {
		t.Fatalf("degenerate fit = %+v", f)
	}
	if f2 := FitPlane([]float64{1}, []float64{1}, []float64{1}); f2.B1 != 0 {
		t.Fatal("tiny input fit not zero")
	}
}

func TestFitPlanePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitPlane([]float64{1, 2}, []float64{1}, []float64{1, 2})
}

// Property: FitPlane recovers random planes from noiseless samples.
func TestFitPlaneRecovers(t *testing.T) {
	f := func(b1, b2, c int8) bool {
		var x1, x2, ys []float64
		for i := 0; i < 30; i++ {
			a := float64(i % 6)
			b := float64((i*7 + 2) % 11)
			x1 = append(x1, a)
			x2 = append(x2, b)
			ys = append(ys, float64(b1)*a+float64(b2)*b+float64(c))
		}
		fit := FitPlane(x1, x2, ys)
		return approx(fit.B1, float64(b1), 1e-5) && approx(fit.B2, float64(b2), 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
