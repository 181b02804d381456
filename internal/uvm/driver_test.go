package uvm

import (
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// newSystem wires engine + host VM + link + driver + device, with the
// default policies.
func newSystem(gcfg gpu.Config, ucfg Config) (*sim.Engine, *Driver, *gpu.Device) {
	return newPolicySystem(gcfg, ucfg, PolicySelection{})
}

// newPolicySystem is newSystem with the driver policies pol names.
func newPolicySystem(gcfg gpu.Config, ucfg Config, pol PolicySelection) (*sim.Engine, *Driver, *gpu.Device) {
	eng := sim.NewEngine()
	eng.MaxEvents = 200_000_000
	vm := hostos.NewVM(hostos.DefaultCostModel())
	link := interconnect.NewLink(interconnect.DefaultPCIe3x16())
	drv, err := NewDriver(ucfg, pol, eng, vm, link)
	if err != nil {
		panic(err)
	}
	dev, err := gpu.NewDevice(gcfg, eng, drv)
	if err != nil {
		panic(err)
	}
	drv.Attach(dev)
	return eng, drv, dev
}

func smallGPU() gpu.Config {
	c := gpu.DefaultTitanV()
	c.NumSMs = 4
	return c
}

func runKernel(t *testing.T, eng *sim.Engine, dev *gpu.Device, k gpu.Kernel) sim.Time {
	t.Helper()
	done := false
	var dur sim.Time
	start := eng.Now()
	if err := dev.LaunchKernel(k, func() { done = true; dur = eng.Now() - start }); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !done {
		t.Fatal("kernel never completed")
	}
	return dur
}

// streamKernel builds a simple streaming read kernel over nPages starting
// at base, one block per 64-page slice.
func streamKernel(base mem.Addr, nPages int) gpu.Kernel {
	const per = 64
	blocks := (nPages + per - 1) / per
	first := mem.PageOf(base)
	return gpu.Kernel{
		NumBlocks: blocks,
		BlockProgram: func(b int) []gpu.Program {
			lo := b * per
			hi := lo + per
			if hi > nPages {
				hi = nPages
			}
			var prog gpu.Program
			prog.Read(0, first+mem.PageID(lo), hi-lo)
			return []gpu.Program{prog}
		},
	}
}

func noPrefetch() Config {
	c := DefaultConfig()
	c.PrefetchEnabled = false
	return c
}

func TestDriverServicesSimpleKernel(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	base := drv.Alloc(2 * mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 600))
	st := drv.Stats()
	if st.Batches == 0 {
		t.Fatal("no batches recorded")
	}
	if st.MigratedPages != 600 {
		t.Fatalf("migrated %d pages, want 600 (no prefetch)", st.MigratedPages)
	}
	if got := drv.ResidentPages(); got != 600 {
		t.Fatalf("resident pages = %d, want 600", got)
	}
	// Every record respects the batch size cap and accounting sanity.
	for _, b := range drv.Collector.Batches {
		if int(b.RawFaults) > drv.Config().BatchSize {
			t.Fatalf("batch %d has %d faults > cap %d", b.ID, b.RawFaults, drv.Config().BatchSize)
		}
		if b.Duration() <= 0 {
			t.Fatalf("batch %d has non-positive duration", b.ID)
		}
		if b.UniquePages > b.RawFaults {
			t.Fatalf("batch %d unique %d > raw %d", b.ID, b.UniquePages, b.RawFaults)
		}
	}
}

func TestResidencyCheckerBeforeAnyFault(t *testing.T) {
	_, drv, _ := newSystem(smallGPU(), noPrefetch())
	if drv.IsResidentOnGPU(123456) {
		t.Fatal("unfaulted page resident")
	}
	if drv.ResidentPages() != 0 || drv.ChunksInUse() != 0 {
		t.Fatal("fresh driver has residency")
	}
}

// TestDriverResidentRun: ResidentRun equals an IsResidentOnGPU loop that
// stops at the first non-resident page, at n pages, or at the end of
// first's VABlock, over an absent block, an empty one, a partial one and
// a full one.
func TestDriverResidentRun(t *testing.T) {
	_, drv, _ := newSystem(smallGPU(), noPrefetch())
	drv.blockFor(1) // present, nothing resident
	partial := drv.blockFor(2)
	for _, r := range [][2]int{{0, 3}, {60, 70}, {100, 448}, {500, 512}} {
		partial.resident.SetRange(r[0], r[1])
	}
	drv.blockFor(3).resident.SetAll()
	// Block 4 is absent.
	loop := func(first mem.PageID, n uint32) uint32 {
		k := uint32(0)
		for k < n && (first+mem.PageID(k)).VABlock() == first.VABlock() && drv.IsResidentOnGPU(first+mem.PageID(k)) {
			k++
		}
		return k
	}
	for b := mem.VABlockID(1); b <= 4; b++ {
		for _, i := range []int{0, 1, 2, 3, 59, 60, 63, 64, 69, 70, 100, 127, 128, 447, 448, 499, 500, 510, 511} {
			for _, n := range []uint32{0, 1, 2, 5, 64, 300, 512, 1000} {
				first := b.PageAt(i)
				if got, want := drv.ResidentRun(first, n), loop(first, n); got != want {
					t.Fatalf("block %d: ResidentRun(page %d, %d) = %d, want %d", b, i, n, got, want)
				}
			}
		}
	}
	// A run that reaches past the block end stops at it, even when the
	// next block is resident too.
	if got := drv.ResidentRun(mem.VABlockID(2).PageAt(500), 100); got != 12 {
		t.Fatalf("run past block 2's end = %d, want 12", got)
	}
}

func TestAllocRoundsToVABlocks(t *testing.T) {
	_, drv, _ := newSystem(smallGPU(), noPrefetch())
	a := drv.Alloc(100) // 100 bytes -> 1 block
	b := drv.Alloc(mem.VABlockSize + 1)
	if mem.VABlockOf(b)-mem.VABlockOf(a) != 1 {
		t.Fatalf("allocations not block-aligned: a=%v b=%v", a, b)
	}
	c := drv.Alloc(1)
	if mem.VABlockOf(c)-mem.VABlockOf(b) != 2 {
		t.Fatalf("second allocation did not span 2 blocks: b=%v c=%v", b, c)
	}
}

func TestAllocPanicsOnZero(t *testing.T) {
	_, drv, _ := newSystem(smallGPU(), noPrefetch())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	drv.Alloc(0)
}

func TestFirstTouchPaysDMAAndUnmap(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	base := drv.Alloc(mem.VABlockSize, WithHostInit(1))
	runKernel(t, eng, dev, streamKernel(base, 512))

	var dmaBlocks, unmapPages int
	var tDMA, tUnmap sim.Time
	for _, b := range drv.Collector.Batches {
		dmaBlocks += int(b.NewDMABlocks)
		unmapPages += int(b.UnmapPages)
		tDMA += b.TDMAMap
		tUnmap += b.TUnmap
	}
	if dmaBlocks != 1 {
		t.Fatalf("NewDMABlocks = %d, want 1", dmaBlocks)
	}
	if tDMA <= 0 {
		t.Fatal("no DMA mapping time recorded")
	}
	if unmapPages != 512 {
		t.Fatalf("unmapped %d pages, want 512", unmapPages)
	}
	if tUnmap <= 0 {
		t.Fatal("no unmap time recorded")
	}
}

func TestNoUnmapWithoutHostInit(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	base := drv.Alloc(mem.VABlockSize) // device-first allocation
	runKernel(t, eng, dev, streamKernel(base, 512))
	for _, b := range drv.Collector.Batches {
		if b.UnmapPages != 0 || b.TUnmap != 0 {
			t.Fatalf("batch %d paid unmap for never-CPU-touched block", b.ID)
		}
	}
}

func TestPrefetchReducesBatches(t *testing.T) {
	gcfg := smallGPU()
	npages := 4 * mem.PagesPerVABlock

	engOff, drvOff, devOff := newSystem(gcfg, noPrefetch())
	baseOff := drvOff.Alloc(uint64(npages) * mem.PageSize)
	runKernel(t, engOff, devOff, streamKernel(baseOff, npages))

	on := DefaultConfig()
	engOn, drvOn, devOn := newSystem(gcfg, on)
	baseOn := drvOn.Alloc(uint64(npages) * mem.PageSize)
	runKernel(t, engOn, devOn, streamKernel(baseOn, npages))

	bOff, bOn := drvOff.Stats().Batches, drvOn.Stats().Batches
	if bOn*2 >= bOff {
		t.Fatalf("prefetch did not cut batches >2x: off=%d on=%d", bOff, bOn)
	}
	if drvOn.Stats().PrefetchedPages == 0 {
		t.Fatal("no pages prefetched")
	}
	// Same data ends up resident either way.
	if drvOn.ResidentPages() != drvOff.ResidentPages() {
		t.Fatalf("resident mismatch: on=%d off=%d", drvOn.ResidentPages(), drvOff.ResidentPages())
	}
}

func TestOversubscriptionEvicts(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 4 * mem.VABlockSize // 4-block GPU
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	// Working set: 6 blocks, 150% oversubscription.
	npages := 6 * mem.PagesPerVABlock
	base := drv.Alloc(uint64(npages) * mem.PageSize)
	runKernel(t, eng, dev, streamKernel(base, npages))

	st := drv.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under oversubscription")
	}
	if drv.ChunksInUse() > 4 {
		t.Fatalf("chunks in use %d > capacity 4", drv.ChunksInUse())
	}
	if st.MigratedPages < npages {
		t.Fatalf("migrated %d < working set %d", st.MigratedPages, npages)
	}
	var evBytes uint64
	for _, b := range drv.Collector.Batches {
		if b.Evictions > 0 && b.TEvict <= 0 {
			t.Fatalf("batch %d evicted without time cost", b.ID)
		}
		evBytes += b.EvictedBytes
	}
	if evBytes == 0 {
		t.Fatal("no bytes written back on eviction")
	}
}

func TestLRUEvictsEarliestTouched(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	base := drv.Alloc(3 * mem.VABlockSize)
	firstBlock := mem.VABlockOf(base)

	// Touch blocks 0, 1, 2 strictly in order (one block per kernel).
	for i := 0; i < 3; i++ {
		b := mem.Addr(i) * mem.VABlockSize
		runKernel(t, eng, dev, streamKernel(base+b, mem.PagesPerVABlock))
	}
	// Block 2's allocation must have evicted block 0 (earliest touched).
	var evicted []mem.VABlockID
	for _, b := range drv.Collector.Batches {
		evicted = append(evicted, b.EvictedBlocks...)
	}
	if len(evicted) == 0 {
		t.Fatal("no eviction recorded")
	}
	if evicted[0] != firstBlock {
		t.Fatalf("first eviction = block %d, want earliest %d", evicted[0], firstBlock)
	}
}

func TestEvictedBlockSkipsUnmapOnRefetch(t *testing.T) {
	// Figure 13's levels: a block evicted and re-fetched pays no
	// unmap_mapping_range, because eviction does not remap to the CPU.
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	base := drv.Alloc(3*mem.VABlockSize, WithHostInit(1))

	// Pass 1 touches blocks 0,1,2 (block 0 evicted); pass 2 re-touches
	// block 0.
	for _, blk := range []int{0, 1, 2, 0} {
		runKernel(t, eng, dev, streamKernel(base+mem.Addr(blk)*mem.VABlockSize, mem.PagesPerVABlock))
	}
	// Unmap happened exactly once per block (first touch): 3*512 pages.
	unmap := 0
	for _, b := range drv.Collector.Batches {
		unmap += int(b.UnmapPages)
	}
	if unmap != 3*512 {
		t.Fatalf("unmapped %d pages, want %d (no unmap on re-fetch)", unmap, 3*512)
	}
}

func TestTouchHostRestoresUnmapCost(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	base := drv.Alloc(3*mem.VABlockSize, WithHostInit(1))
	for _, blk := range []int{0, 1, 2} {
		runKernel(t, eng, dev, streamKernel(base+mem.Addr(blk)*mem.VABlockSize, mem.PagesPerVABlock))
	}
	// CPU re-touches evicted block 0, then GPU faults it again.
	drv.TouchHost(base, mem.VABlockSize, 4)
	runKernel(t, eng, dev, streamKernel(base, mem.PagesPerVABlock))
	unmap := 0
	for _, b := range drv.Collector.Batches {
		unmap += int(b.UnmapPages)
	}
	if unmap != 4*512 {
		t.Fatalf("unmapped %d pages, want %d (host re-touch restores cost)", unmap, 4*512)
	}
}

func TestDuplicateClassification(t *testing.T) {
	// Two blocks on SMs sharing a µTLB read the same pages -> type-1;
	// with 4 SMs (2 µTLBs), blocks 0/1 share µTLB0 and 2/3 share µTLB1,
	// so four blocks reading the same pages also produce type-2.
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	base := drv.Alloc(mem.VABlockSize)
	first := mem.PageOf(base)
	var shared gpu.Program
	shared.Read(0, first, 32)
	runKernel(t, eng, dev, gpu.Kernel{
		NumBlocks: 4,
		BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{shared}
		},
	})
	t1, t2 := 0, 0
	for _, b := range drv.Collector.Batches {
		t1 += int(b.Type1Dups)
		t2 += int(b.Type2Dups)
	}
	if t2 == 0 {
		t.Fatal("no type-2 (cross-µTLB) duplicates for shared pages")
	}
	// Resident set is still just the 32 shared pages.
	if drv.ResidentPages() != 32 {
		t.Fatalf("resident = %d, want 32", drv.ResidentPages())
	}
}

func TestBatchTimeComponentsSumWithinDuration(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), DefaultConfig())
	base := drv.Alloc(4*mem.VABlockSize, WithHostInit(2))
	runKernel(t, eng, dev, streamKernel(base, 4*mem.PagesPerVABlock))
	for _, b := range drv.Collector.Batches {
		sum := b.TFetch + b.TDedup + b.TBlockMgmt + b.TPopulate + b.TPageTable +
			b.TDMAMap + b.TUnmap + b.TTransfer + b.TEvict + b.TReplay
		if sum > b.Duration() {
			t.Fatalf("batch %d: components %d > duration %d", b.ID, sum, b.Duration())
		}
		// Components account for most of the batch (only setup is
		// outside them).
		if float64(sum) < 0.5*float64(b.Duration()) {
			t.Fatalf("batch %d: components %d < 50%% of duration %d", b.ID, sum, b.Duration())
		}
	}
}

func TestBatchSizeCapSweep(t *testing.T) {
	for _, bs := range []int{32, 256, 1024} {
		ucfg := noPrefetch()
		ucfg.BatchSize = bs
		eng, drv, dev := newSystem(smallGPU(), ucfg)
		base := drv.Alloc(2 * mem.VABlockSize)
		runKernel(t, eng, dev, streamKernel(base, 2*mem.PagesPerVABlock))
		for _, b := range drv.Collector.Batches {
			if int(b.RawFaults) > bs {
				t.Fatalf("batchSize=%d: batch with %d faults", bs, b.RawFaults)
			}
		}
		if drv.ResidentPages() != 2*mem.PagesPerVABlock {
			t.Fatalf("batchSize=%d: incomplete migration", bs)
		}
	}
}

func TestLargerBatchSizeFewerBatches(t *testing.T) {
	// Figure 9's mechanism: larger batches amortize per-batch overhead.
	counts := map[int]int{}
	for _, bs := range []int{64, 512} {
		ucfg := noPrefetch()
		ucfg.BatchSize = bs
		eng, drv, dev := newSystem(gpu.DefaultTitanV(), ucfg)
		base := drv.Alloc(8 * mem.VABlockSize)
		runKernel(t, eng, dev, streamKernel(base, 8*mem.PagesPerVABlock))
		counts[bs] = drv.Stats().Batches
	}
	if counts[512] >= counts[64] {
		t.Fatalf("batch 512 used %d batches, batch 64 used %d; want fewer",
			counts[512], counts[64])
	}
}

func TestWakeupAccounting(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	base := drv.Alloc(mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 128))
	st := drv.Stats()
	if st.WakeUps == 0 {
		t.Fatal("no wakeups recorded")
	}
	if st.Batches < st.WakeUps {
		t.Fatalf("batches %d < wakeups %d", st.Batches, st.WakeUps)
	}
}

func TestCollectorFaultRetention(t *testing.T) {
	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	drv.Collector.KeepFaults = true
	base := drv.Alloc(mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 100))
	if len(drv.Collector.Faults) == 0 {
		t.Fatal("KeepFaults retained nothing")
	}
	if len(drv.Collector.Faults) != len(drv.Collector.FaultBatch) {
		t.Fatal("fault/batch arrays misaligned")
	}
	if got := drv.Stats().TotalFaults; got != len(drv.Collector.Faults) {
		t.Fatalf("Stats().TotalFaults %d != retained %d", got, len(drv.Collector.Faults))
	}
}

func TestForwardProgressUnderHeavyThrash(t *testing.T) {
	// Working set 4x capacity: the driver must still finish.
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	npages := 8 * mem.PagesPerVABlock
	base := drv.Alloc(uint64(npages) * mem.PageSize)
	runKernel(t, eng, dev, streamKernel(base, npages))
	if drv.Stats().Evictions < 6 {
		t.Fatalf("evictions = %d, want >= 6", drv.Stats().Evictions)
	}
}
