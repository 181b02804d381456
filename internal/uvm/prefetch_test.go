package uvm

import (
	"math"
	"testing"
	"testing/quick"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestPrefetchSingleFaultUpgradesRegion(t *testing.T) {
	var resident, faulted mem.PageSet
	faulted.Set(5) // one fault in region 0
	extra := PrefetchPages(&resident, &faulted, 0.51, true)
	// The 4KB->64KB upgrade migrates the full 16-page region minus the
	// faulted page; with only 1/32 regions occupied, no tree node fires.
	if got := extra.Count(); got != 15 {
		t.Fatalf("extra pages = %d, want 15 (region upgrade)", got)
	}
	for i := 0; i < 16; i++ {
		if i != 5 && !extra.Has(i) {
			t.Fatalf("page %d of faulted region not prefetched", i)
		}
	}
	if extra.Has(16) {
		t.Fatal("prefetch leaked outside the faulted region")
	}
}

func TestPrefetchDenseFaultsPromoteWholeBlock(t *testing.T) {
	var resident, faulted mem.PageSet
	// Fault one page in 60% of the regions: after upgrade, occupancy is
	// ~60% at the root, above the 51% threshold → full block.
	for r := 0; r < 20; r++ {
		faulted.Set(r * mem.PagesPerRegion)
	}
	extra := PrefetchPages(&resident, &faulted, 0.51, true)
	var all mem.PageSet
	all.Union(&extra)
	all.Union(&faulted)
	if !all.Full() {
		t.Fatalf("dense faults migrated %d/512 pages, want full block", all.Count())
	}
}

func TestPrefetchSparseFaultsStayLocal(t *testing.T) {
	var resident, faulted mem.PageSet
	// Two faults in distant regions: only their regions upgrade.
	faulted.Set(0)
	faulted.Set(31 * mem.PagesPerRegion)
	extra := PrefetchPages(&resident, &faulted, 0.51, true)
	if got := extra.Count(); got != 30 {
		t.Fatalf("extra = %d, want 30 (two region upgrades)", got)
	}
}

func TestPrefetchUsesResidencyForDensity(t *testing.T) {
	var resident, faulted mem.PageSet
	// Half the block already resident; one new fault adjacent to it
	// pushes the bottom subtree over threshold.
	for i := 0; i < 256; i++ {
		resident.Set(i)
	}
	faulted.Set(256)
	extra := PrefetchPages(&resident, &faulted, 0.51, true)
	// After the region upgrade (16 pages), the 512-span root occupancy
	// is (256+16)/512 = 53% >= 51% → whole block promoted.
	var all mem.PageSet
	all.Union(&extra)
	all.Union(&faulted)
	all.Union(&resident)
	if !all.Full() {
		t.Fatalf("expected full-block promotion, got %d/512", all.Count())
	}
	// And the returned set never includes already-resident or faulted
	// pages.
	for i := 0; i < 256; i++ {
		if extra.Has(i) {
			t.Fatalf("resident page %d returned as prefetch", i)
		}
	}
	if extra.Has(256) {
		t.Fatal("faulted page returned as prefetch")
	}
}

func TestPrefetchDisabledUpgradeStillDensityAtLeaf(t *testing.T) {
	var resident, faulted mem.PageSet
	// upgrade64K=false: a 9/16 dense faulted region crosses the leaf
	// threshold and promotes the region.
	for i := 0; i < 9; i++ {
		faulted.Set(i)
	}
	extra := PrefetchPages(&resident, &faulted, 0.51, false)
	if got := extra.Count(); got != 7 {
		t.Fatalf("extra = %d, want 7 (leaf promotion)", got)
	}
}

func TestPrefetchThresholdOne(t *testing.T) {
	var resident, faulted mem.PageSet
	faulted.Set(0)
	extra := PrefetchPages(&resident, &faulted, 1.0, false)
	if extra.Any() {
		t.Fatalf("threshold 1.0 prefetched %d pages", extra.Count())
	}
}

// Property: prefetch output is disjoint from resident and faulted inputs,
// and monotone: it never returns pages when everything is resident.
func TestPrefetchDisjointProperty(t *testing.T) {
	f := func(faultIdx []uint16, resIdx []uint16) bool {
		var resident, faulted mem.PageSet
		for _, i := range resIdx {
			resident.Set(int(i) % 512)
		}
		for _, i := range faultIdx {
			p := int(i) % 512
			if !resident.Has(p) {
				faulted.Set(p)
			}
		}
		extra := PrefetchPages(&resident, &faulted, 0.51, true)
		for _, i := range extra.Indices(nil) {
			if resident.Has(i) || faulted.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// prefetchPagesOracle is the per-bit PrefetchPages that the word-parallel
// implementation replaced, kept verbatim as its reference: it counts every
// region and tree node with CountRange (itself checked against a per-bit
// loop in internal/mem) and promotes one page at a time.
func prefetchPagesOracle(resident, faulted *mem.PageSet, threshold float64, upgrade64K bool) mem.PageSet {
	// target = pages that will be resident after this batch's mandatory
	// migrations.
	var target mem.PageSet
	target.Union(resident)
	target.Union(faulted)

	if upgrade64K {
		for r := 0; r < mem.RegionsPerBlock; r++ {
			lo := r * mem.PagesPerRegion
			hi := lo + mem.PagesPerRegion
			if faulted.CountRange(lo, hi) > 0 {
				for i := lo; i < hi; i++ {
					target.Set(i)
				}
			}
		}
	}

	// Tree pass: levels of span 16, 32, 64, ..., 512 pages. (The 64 KB
	// leaves were handled by the upgrade; start one level up when the
	// upgrade is off so leaves still get density treatment.)
	startSpan := mem.PagesPerRegion
	if upgrade64K {
		startSpan = 2 * mem.PagesPerRegion
	}
	for span := startSpan; span <= mem.PagesPerVABlock; span *= 2 {
		for lo := 0; lo < mem.PagesPerVABlock; lo += span {
			hi := lo + span
			occ := target.CountRange(lo, hi)
			if occ == 0 || occ == span {
				continue
			}
			if float64(occ) >= threshold*float64(span) {
				for i := lo; i < hi; i++ {
					target.Set(i)
				}
			}
		}
	}

	target.Subtract(resident)
	target.Subtract(faulted)
	return target
}

// randomPrefetchInput draws one (resident, faulted) pair. Half the pairs
// set pages independently at a random density; the other half set a few
// random runs, so whole regions and subtrees sit near every threshold.
// Most pairs keep faulted disjoint from resident, as the dedup stage
// does; the rest overlap, which both implementations must also agree on.
func randomPrefetchInput(rng *sim.RNG) (resident, faulted mem.PageSet) {
	fill := func(s *mem.PageSet, density float64, runs int) {
		if rng.Intn(2) == 0 {
			for p := 0; p < mem.PagesPerVABlock; p++ {
				if rng.Float64() < density {
					s.Set(p)
				}
			}
			return
		}
		for i := 0; i < runs; i++ {
			lo := rng.Intn(mem.PagesPerVABlock)
			s.SetRange(lo, min(mem.PagesPerVABlock, lo+1+rng.Intn(192)))
		}
	}
	fill(&resident, rng.Float64(), rng.Intn(8))
	fill(&faulted, rng.Float64()*rng.Float64(), 1+rng.Intn(8))
	if rng.Intn(4) != 0 {
		faulted.Subtract(&resident)
	}
	return resident, faulted
}

// TestPrefetchMatchesOracle drives the word-parallel prefetcher and the
// per-bit oracle in lockstep over seeded inputs, every threshold class
// and both upgrade settings, and fails on the first differing set.
func TestPrefetchMatchesOracle(t *testing.T) {
	const pairs = 10000
	rng := sim.NewRNG(20260514)
	for i := 0; i < pairs; i++ {
		resident, faulted := randomPrefetchInput(rng)
		// 1 - Float64 lies in (0, 1], the range Config.Validate admits.
		for _, th := range []float64{0.25, 0.5, 0.51, 0.75, 1.0, 1 - rng.Float64()} {
			for _, up := range []bool{false, true} {
				got := PrefetchPages(&resident, &faulted, th, up)
				want := prefetchPagesOracle(&resident, &faulted, th, up)
				if got != want {
					t.Fatalf("pair %d, threshold %v, upgrade64K %v:\nresident %x\nfaulted  %x\ngot      %x\nwant     %x",
						i, th, up, resident, faulted, got, want)
				}
			}
		}
	}
}

// pageSetFromBytes fills a PageSet from up to 64 little-endian bytes.
func pageSetFromBytes(data []byte) mem.PageSet {
	var s mem.PageSet
	for i, c := range data[:min(len(data), 64)] {
		s[i/8] |= uint64(c) << (8 * (i % 8))
	}
	return s
}

// FuzzPrefetchMatchesOracle compares the word-parallel prefetcher with
// the per-bit oracle on arbitrary sets. The threshold is folded into
// (0, 1], the range Config.Validate admits. Seeds live under
// testdata/fuzz/FuzzPrefetchMatchesOracle.
func FuzzPrefetchMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, res, flt []byte, threshold float64, upgrade64K bool) {
		if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
			t.Skip("threshold must be finite")
		}
		threshold = math.Abs(threshold)
		if threshold -= math.Floor(threshold); threshold == 0 {
			threshold = 1
		}
		resident, faulted := pageSetFromBytes(res), pageSetFromBytes(flt)
		got := PrefetchPages(&resident, &faulted, threshold, upgrade64K)
		want := prefetchPagesOracle(&resident, &faulted, threshold, upgrade64K)
		if got != want {
			t.Fatalf("threshold %v, upgrade64K %v:\nresident %x\nfaulted  %x\ngot      %x\nwant     %x",
				threshold, upgrade64K, resident, faulted, got, want)
		}
	})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{BatchSize: 0, GPUMemBytes: 4 << 20},
		{BatchSize: 256, GPUMemBytes: 1 << 20},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A batch's fault histograms count in uint16 cells.
	c := DefaultConfig()
	c.BatchSize = 65535
	if err := c.Validate(); err != nil {
		t.Errorf("BatchSize 65535 rejected: %v", err)
	}
	c.BatchSize = 65536
	if err := c.Validate(); err == nil {
		t.Error("BatchSize 65536 accepted")
	}
}

func TestCapacityBlocks(t *testing.T) {
	c := Config{GPUMemBytes: 16 << 20}
	if c.CapacityBlocks() != 8 {
		t.Fatalf("CapacityBlocks = %d, want 8", c.CapacityBlocks())
	}
}

func TestDefaultCostModelPositive(t *testing.T) {
	cm := DefaultCostModel()
	for name, v := range map[string]sim.Time{
		"WakeupLatency":    cm.WakeupLatency,
		"BatchSetup":       cm.BatchSetup,
		"FetchPerFault":    cm.FetchPerFault,
		"DedupPerFault":    cm.DedupPerFault,
		"PerVABlock":       cm.PerVABlock,
		"PageTablePerPage": cm.PageTablePerPage,
		"ReplayCost":       cm.ReplayCost,
		"EvictBase":        cm.EvictBase,
		"EvictPerPage":     cm.EvictPerPage,
	} {
		if v <= 0 {
			t.Errorf("%s = %d, want positive", name, v)
		}
	}
}
