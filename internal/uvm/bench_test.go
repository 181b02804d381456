package uvm

import (
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// BenchmarkBatchService measures the driver's whole batch-servicing
// pipeline: a streaming kernel over 16 MB forces ~2 pages per fault batch
// slot, so each op services dozens of 256-fault batches end to end
// (dedup, grouping, allocation, DMA setup, migration, replay). Run with
// -benchmem: the per-batch map/slice and per-event allocations are what
// the hot-path allocation diet targets.
func BenchmarkBatchService(b *testing.B) {
	const bytes = 16 << 20
	nPages := int(bytes / mem.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, drv, dev := newSystem(smallGPU(), noPrefetch())
		base := drv.Alloc(bytes)
		k := streamKernel(base, nPages)
		done := false
		if err := dev.LaunchKernel(k, func() { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("kernel never completed")
		}
		if drv.Stats().Batches == 0 {
			b.Fatal("no batches serviced")
		}
	}
}

// batchCounter is the smallest Observer: it counts batch ends.
type batchCounter int

func (c *batchCounter) EndBatch(int, *trace.BatchRecord, []gpu.Fault) { *c++ }

// BenchmarkBatchServiceObserved is BenchmarkBatchService with a batch
// observer attached through Driver.Observe — the incremental cost of the
// observer seam itself (one indirect call per batch; a batch-end
// observer is never called per installment or per block). Compare
// against the base benchmark: with no observer attached, the driver pays
// only empty-slice length checks, which the allocation guard test pins
// at zero extra allocations.
func BenchmarkBatchServiceObserved(b *testing.B) {
	const bytes = 16 << 20
	nPages := int(bytes / mem.PageSize)
	b.ReportAllocs()
	var observed batchCounter
	for i := 0; i < b.N; i++ {
		eng, drv, dev := newSystem(smallGPU(), noPrefetch())
		drv.Observe(&observed)
		base := drv.Alloc(bytes)
		k := streamKernel(base, nPages)
		done := false
		if err := dev.LaunchKernel(k, func() { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("kernel never completed")
		}
		if observed == 0 {
			b.Fatal("observer never ran")
		}
	}
}

// BenchmarkBatchServiceProfiled is BenchmarkBatchService with the
// fault-lifecycle profiler attached through Driver.Observe as a stage
// observer — the full record path: lifecycle marks per fault, stage
// attribution per batch, block-step accounting per VABlock, and heat
// updates per page. The budget is ≤10% over BenchmarkBatchService; with
// the profiler detached the pipeline pays only length checks, which the
// allocation guard pins.
func BenchmarkBatchServiceProfiled(b *testing.B) {
	const bytes = 16 << 20
	nPages := int(bytes / mem.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, drv, dev := newSystem(smallGPU(), noPrefetch())
		prof := obs.NewProfiler(nil, obs.NewRegistry())
		drv.Observe(prof)
		base := drv.Alloc(bytes)
		k := streamKernel(base, nPages)
		done := false
		if err := dev.LaunchKernel(k, func() { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("kernel never completed")
		}
		if len(prof.Batches()) == 0 {
			b.Fatal("profiler recorded no batches")
		}
	}
}

// BenchmarkLargeWorkingSet stresses the block directories at the paper's
// real evaluation scale: a 4 GB managed allocation (2048 VABlocks)
// touched one page per block, so residency probes, eviction scans, and
// audit walks traverse per-block state two orders of magnitude wider
// than the 16 MB streaming benchmark. With map-backed block state this
// working set paid a hash per probe and a sort per audit; the sparse
// two-level directory keeps probes as array indexes and iteration
// linear in populated segments.
func BenchmarkLargeWorkingSet(b *testing.B) {
	const blocks = 2048 // 4 GB of managed VA
	const perSMBlock = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ucfg := noPrefetch()
		ucfg.GPUMemBytes = (blocks + 8) * mem.VABlockSize
		eng, drv, dev := newSystem(smallGPU(), ucfg)
		base := drv.Alloc(blocks * mem.VABlockSize)
		first := mem.PageOf(base)
		k := gpu.Kernel{
			NumBlocks: blocks / perSMBlock,
			BlockProgram: func(bi int) []gpu.Program {
				pages := make([]mem.PageID, perSMBlock)
				for j := range pages {
					pages[j] = first + mem.PageID((bi*perSMBlock+j)*mem.PagesPerVABlock)
				}
				var prog gpu.Program
				prog.ReadPages(0, pages)
				return []gpu.Program{prog}
			},
		}
		done := false
		if err := dev.LaunchKernel(k, func() { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("kernel never completed")
		}
		if got := drv.ResidentPages(); got != blocks {
			b.Fatalf("resident pages = %d, want %d", got, blocks)
		}
	}
}

// BenchmarkBatchServiceOversub measures the batch pipeline's residency
// work: seeded random single-page reads over a working set twice the
// device memory, with the shipped tree prefetcher and LRU eviction. Every
// batch promotes prefetched regions and subtrees and evicts VABlocks to
// make room, the path BenchmarkBatchService (prefetch off, no pressure)
// bypasses.
func BenchmarkBatchServiceOversub(b *testing.B) {
	const (
		capacity = 16 << 20
		bytes    = 2 * capacity
		blocks   = 32
		accesses = 64
	)
	nPages := uint64(bytes / mem.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ucfg := DefaultConfig()
		ucfg.GPUMemBytes = capacity
		eng, drv, dev := newSystem(smallGPU(), ucfg)
		first := mem.PageOf(drv.Alloc(bytes))
		k := gpu.Kernel{
			NumBlocks: blocks,
			BlockProgram: func(bi int) []gpu.Program {
				rng := sim.NewRNG(uint64(bi) + 1)
				prog := gpu.NewProgram(accesses, accesses)
				for j := 0; j < accesses; j++ {
					prog.Read(0, first+mem.PageID(rng.Uint64n(nPages)), 1)
				}
				return []gpu.Program{prog}
			},
		}
		done := false
		if err := dev.LaunchKernel(k, func() { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("kernel never completed")
		}
		if st := drv.Stats(); st.Evictions == 0 || st.PrefetchedPages == 0 {
			b.Fatalf("evictions %d, prefetched pages %d: the oversubscribed path did not run",
				st.Evictions, st.PrefetchedPages)
		}
	}
}
