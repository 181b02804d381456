package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"guvm/internal/trace"
)

func TestServiceGaps(t *testing.T) {
	batches := []trace.BatchRecord{
		{Start: 0, End: 100},
		{Start: 150, End: 300},
		{Start: 300, End: 400}, // back-to-back
	}
	s := ServiceGaps(batches)
	if s.N != 2 || s.Max != 50 || s.Min != 0 {
		t.Fatalf("gaps = %+v", s)
	}
}

func TestDuplicates(t *testing.T) {
	batches := []trace.BatchRecord{
		{RawFaults: 100, UniquePages: 60, Type1Dups: 30, Type2Dups: 10},
		{RawFaults: 100, UniquePages: 100},
	}
	d := Duplicates(batches)
	if d.Raw != 200 || d.Unique != 160 || d.Type1 != 30 || d.Type2 != 10 {
		t.Fatalf("breakdown = %+v", d)
	}
	if math.Abs(d.DupPercent-20) > 1e-9 {
		t.Fatalf("dup%% = %v", d.DupPercent)
	}
}

func TestGiniExtremes(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Fatalf("balanced gini = %v", g)
	}
	// All mass on one element approaches (n-1)/n.
	g := Gini([]float64{0, 0, 0, 100})
	if math.Abs(g-0.75) > 1e-9 {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Fatal("degenerate gini not zero")
	}
}

// Property: Gini is in [0, 1) and scale-invariant.
func TestGiniProperties(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		k := float64(scale%9) + 1
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = k * float64(r)
		}
		g1, g2 := Gini(xs), Gini(ys)
		if g1 < -1e-9 || g1 >= 1 {
			return false
		}
		return math.Abs(g1-g2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVABlockImbalance(t *testing.T) {
	balanced := []trace.BatchRecord{{VABlockFaults: []uint16{4, 4, 4, 4}}}
	skewed := []trace.BatchRecord{{VABlockFaults: []uint16{1, 1, 1, 200}}}
	if gb, gs := VABlockImbalance(balanced), VABlockImbalance(skewed); gb >= gs {
		t.Fatalf("balanced gini %v >= skewed %v", gb, gs)
	}
}

func TestSegmentPhasesDetectsShift(t *testing.T) {
	var batches []trace.BatchRecord
	for i := 0; i < 20; i++ {
		batches = append(batches, trace.BatchRecord{RawFaults: 250})
	}
	for i := 0; i < 20; i++ {
		batches = append(batches, trace.BatchRecord{RawFaults: 40})
	}
	phases := SegmentPhases(batches, 5, 0.5)
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2: %+v", len(phases), phases)
	}
	if phases[0].LastBatch != 19 || phases[1].FirstBatch != 20 {
		t.Fatalf("boundary wrong: %+v", phases)
	}
	if phases[0].MeanFaults < 200 || phases[1].MeanFaults > 60 {
		t.Fatalf("phase means wrong: %+v", phases)
	}
}

func TestSegmentPhasesUniformSeries(t *testing.T) {
	var batches []trace.BatchRecord
	for i := 0; i < 50; i++ {
		batches = append(batches, trace.BatchRecord{RawFaults: int32(100 + i%3)})
	}
	phases := SegmentPhases(batches, 5, 0.5)
	if len(phases) != 1 {
		t.Fatalf("uniform series split into %d phases", len(phases))
	}
	if SegmentPhases(nil, 5, 0.5) != nil {
		t.Fatal("empty series not nil")
	}
}

// Property: phases tile the batch range exactly.
func TestSegmentPhasesTile(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		batches := make([]trace.BatchRecord, len(sizes))
		for i, s := range sizes {
			batches[i].RawFaults = int32(s)
		}
		phases := SegmentPhases(batches, 3, 0.5)
		if phases[0].FirstBatch != 0 {
			return false
		}
		for i := 1; i < len(phases); i++ {
			if phases[i].FirstBatch != phases[i-1].LastBatch+1 {
				return false
			}
		}
		return phases[len(phases)-1].LastBatch == len(batches)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShares(t *testing.T) {
	batches := []trace.BatchRecord{{
		Start: 0, End: 1000,
		TFetch: 200, TTransfer: 100, TUnmap: 300, TReplay: 100,
	}}
	s := Shares(batches)
	if math.Abs(s.Fetch-0.2) > 1e-9 || math.Abs(s.Transfer-0.1) > 1e-9 ||
		math.Abs(s.Unmap-0.3) > 1e-9 {
		t.Fatalf("shares = %+v", s)
	}
	if math.Abs(s.Other-0.3) > 1e-9 {
		t.Fatalf("other = %v, want 0.3", s.Other)
	}
	if Shares(nil) != (CostShares{}) {
		t.Fatal("empty shares not zero")
	}
}
