package hostos

import (
	"math"
	"math/big"
	"runtime"
	"testing"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestTouchCPUTracksPagesAndThreads(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	b := mem.VABlockID(3)
	vm.TouchCPU(b, 0, 0)
	vm.TouchCPU(b, 1, 0)
	vm.TouchCPU(b, 1, 5) // same page, second thread
	if got := vm.CPUMappedPages(b); got != 2 {
		t.Fatalf("CPUMappedPages = %d, want 2", got)
	}
	if got := vm.TouchingThreads(b); got != 2 {
		t.Fatalf("TouchingThreads = %d, want 2", got)
	}
	if vm.CPUMappedPages(mem.VABlockID(9)) != 0 {
		t.Fatal("untouched block reports mapped pages")
	}
}

func TestUnmapMappingRangeCostAndClear(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	b := mem.VABlockID(1)
	for i := 0; i < 100; i++ {
		vm.TouchCPU(b, i, 0)
	}
	cost, n := vm.UnmapMappingRange(b)
	if n != 100 {
		t.Fatalf("unmapped %d pages, want 100", n)
	}
	cm := DefaultCostModel()
	want := cm.UnmapBase + 100*cm.UnmapPerPage
	if cost != want {
		t.Fatalf("single-thread cost = %d, want %d", cost, want)
	}
	// Second unmap is free: mappings are gone.
	cost2, n2 := vm.UnmapMappingRange(b)
	if cost2 != 0 || n2 != 0 {
		t.Fatalf("re-unmap cost = %d/%d, want 0/0", cost2, n2)
	}
	st := vm.Stats()
	if st.UnmapCalls != 1 || st.PagesUnmapped != 100 || st.UnmapTime != want {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnmapMultithreadedAmplification(t *testing.T) {
	// The same mapping touched by many CPU threads must cost more to
	// unmap (TLB shootdowns) — the Figure 11 mechanism.
	single := NewVM(DefaultCostModel())
	multi := NewVM(DefaultCostModel())
	b := mem.VABlockID(0)
	for i := 0; i < 512; i++ {
		single.TouchCPU(b, i, 0)
		multi.TouchCPU(b, i, i%32)
	}
	cs, _ := single.UnmapMappingRange(b)
	cm, _ := multi.UnmapMappingRange(b)
	if cm <= cs {
		t.Fatalf("multithreaded unmap (%d) not costlier than single (%d)", cm, cs)
	}
	ratio := float64(cm) / float64(cs)
	want := 1 + DefaultCostModel().UnmapThreadFactor*31
	if ratio < 0.9*want || ratio > 1.1*want {
		t.Fatalf("32-thread amplification ratio = %.2f, want ~%.2f", ratio, want)
	}
}

// unmapCostRounded is UnmapMappingRange's cost computed with every
// floating-point operation rounded to float64 on its own (53-bit
// mantissa, round to nearest even), then truncated to nanoseconds: the
// unfused reference every platform must reproduce.
func unmapCostRounded(c CostModel, threads, pages int) sim.Time {
	f := func(v float64) *big.Float { return big.NewFloat(v) }
	op := func() *big.Float { return new(big.Float).SetPrec(53) }
	base := c.UnmapBase + sim.Time(pages)*c.UnmapPerPage
	prod := op().Mul(f(c.UnmapThreadFactor), f(float64(threads-1)))
	scale := op().Add(f(1), prod)
	ns, _ := op().Mul(f(float64(base)), scale).Int64()
	return sim.Time(ns)
}

// TestUnmapCostUnfused checks the unmap cost for 1-64 touching threads
// and 1-512 mapped pages against the individually rounded reference. A
// build that fuses the thread scale's multiply-add into one rounding
// gives a different nanosecond in some cells: 10 threads and 4 pages
// cost 29,119 ns unfused and 29,120 ns fused, which the first check pins.
func TestUnmapCostUnfused(t *testing.T) {
	c := DefaultCostModel()
	fused := func(threads, pages int) sim.Time {
		base := c.UnmapBase + sim.Time(pages)*c.UnmapPerPage
		return sim.Time(float64(base) * math.FMA(c.UnmapThreadFactor, float64(threads-1), 1))
	}
	if got, f := unmapCostRounded(c, 10, 4), fused(10, 4); got != 29119 || f != 29120 {
		t.Fatalf("10 threads, 4 pages: reference %d ns, fused %d ns; want 29119 and 29120", got, f)
	}
	vm := NewVM(c)
	b := mem.VABlockID(1)
	for threads := 1; threads <= MaxThreads; threads++ {
		for pages := 1; pages <= mem.PagesPerVABlock; pages++ {
			for th := 0; th < threads; th++ {
				vm.TouchCPU(b, 0, th)
			}
			for i := 1; i < pages; i++ {
				vm.TouchCPU(b, i, 0)
			}
			got, n := vm.UnmapMappingRange(b)
			if n != pages {
				t.Fatalf("%d threads: unmapped %d pages, want %d", threads, n, pages)
			}
			if want := unmapCostRounded(c, threads, pages); got != want {
				t.Fatalf("%d threads, %d pages: cost %d ns, want %d ns", threads, pages, got, want)
			}
		}
	}
}

func TestPopulateCost(t *testing.T) {
	cmod := DefaultCostModel()
	vm := NewVM(cmod)
	cost, err := vm.Populate(512)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 512*cmod.PopulatePerPage {
		t.Fatalf("populate cost = %d", cost)
	}
	if vm.Stats().PagesPopulated != 512 {
		t.Fatalf("stats pages populated = %d", vm.Stats().PagesPopulated)
	}
}

func TestMapDMAMapsWholeBlock(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	b := mem.VABlockID(7)
	cost := vm.MapDMA(b)
	if cost <= 0 {
		t.Fatal("MapDMA cost not positive")
	}
	for i := 0; i < mem.PagesPerVABlock; i++ {
		if !vm.HasDMA(b.PageAt(i)) {
			t.Fatalf("page %d of block lacks DMA mapping", i)
		}
	}
	if vm.HasDMA(mem.VABlockID(8).PageAt(0)) {
		t.Fatal("unrelated page has DMA mapping")
	}
	if vm.Stats().DMAPagesMapped != mem.PagesPerVABlock {
		t.Fatalf("stats DMA pages = %d", vm.Stats().DMAPagesMapped)
	}
}

// TestMapDMAReusedLeavesAllocateNothing: once a block's leaves exist,
// mapping it again only overwrites typed leaf slots, so the radix tree
// boxes no value and allocates nothing.
func TestMapDMAReusedLeavesAllocateNothing(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	b := mem.VABlockID(5)
	vm.MapDMA(b)
	nodes := vm.Stats().RadixNodes
	if got := testing.AllocsPerRun(20, func() { vm.MapDMA(b) }); got != 0 {
		t.Fatalf("MapDMA of a mapped block makes %v allocations, want 0", got)
	}
	if vm.Stats().RadixNodes != nodes {
		t.Fatalf("remapping grew the tree: %d nodes, was %d", vm.Stats().RadixNodes, nodes)
	}
}

// TestMapDMAFreshBlockBytes: the tree records presence only, so mapping
// a fresh VABlock allocates its eight 64-slot leaves with no value
// arrays, plus a share of an interior node: a few hundred bytes, where
// leaves carrying 64 addresses each cost about 8 × 576 B.
func TestMapDMAFreshBlockBytes(t *testing.T) {
	const blocks = 256
	vm := NewVM(DefaultCostModel())
	vm.MapDMA(0)
	nodes := vm.Stats().RadixNodes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 1; b <= blocks; b++ {
		vm.MapDMA(mem.VABlockID(b))
	}
	runtime.ReadMemStats(&after)
	if perBlock := (after.TotalAlloc - before.TotalAlloc) / blocks; perBlock > 640 {
		t.Fatalf("mapping a fresh block allocates %d B, want at most 640", perBlock)
	}
	if got := vm.Stats().RadixNodes - nodes; got < blocks*mem.PagesPerVABlock/radixFanout {
		t.Fatalf("%d fresh blocks allocated %d radix nodes, want a leaf per 64 pages", blocks, got)
	}
}

func TestMapDMAFirstBlockCostlierThanDense(t *testing.T) {
	// Tree growth makes some MapDMA calls spike (Figure 14): mapping a
	// far-away block after many near ones allocates fresh interior nodes.
	vm := NewVM(DefaultCostModel())
	first := vm.MapDMA(mem.VABlockID(0))
	second := vm.MapDMA(mem.VABlockID(1))
	if first <= second {
		t.Fatalf("first MapDMA (%d) should exceed adjacent second (%d): tree growth", first, second)
	}
	far := vm.MapDMA(mem.VABlockID(1 << 20))
	if far <= second {
		t.Fatalf("far MapDMA (%d) should exceed dense-adjacent (%d)", far, second)
	}
}

func TestStatsAccumulate(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	vm.MapDMA(mem.VABlockID(0))
	vm.Populate(10)
	vm.TouchCPU(mem.VABlockID(0), 0, 0)
	vm.UnmapMappingRange(mem.VABlockID(0))
	st := vm.Stats()
	if st.DMAMapTime <= 0 || st.PopulateTime <= 0 || st.UnmapTime <= 0 {
		t.Fatalf("stats times not accumulated: %+v", st)
	}
	if st.RadixNodes <= 0 {
		t.Fatalf("no radix nodes recorded: %+v", st)
	}
}

func TestUnmapCostScalesWithPages(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	costs := make([]sim.Time, 0, 3)
	for i, n := range []int{10, 100, 500} {
		b := mem.VABlockID(i)
		for p := 0; p < n; p++ {
			vm.TouchCPU(b, p, 0)
		}
		c, _ := vm.UnmapMappingRange(b)
		costs = append(costs, c)
	}
	if !(costs[0] < costs[1] && costs[1] < costs[2]) {
		t.Fatalf("unmap cost not monotone in pages: %v", costs)
	}
}
