package uvm

import (
	"testing"
	"testing/quick"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

func TestMakespanSerialEqualsSum(t *testing.T) {
	costs := []sim.Time{10, 20, 30}
	if got := makespan(costs, 1, false, 100); got != 60 {
		t.Fatalf("serial makespan = %d, want 60", got)
	}
	if got := makespan(nil, 4, true, 100); got != 0 {
		t.Fatalf("empty makespan = %d", got)
	}
}

func TestMakespanParallelBounds(t *testing.T) {
	costs := []sim.Time{40, 10, 10, 10, 10, 10}
	// 2 workers, arrival order: w0={40,10,10}=60? greedy least-loaded:
	// 40->w0, 10->w1, 10->w1, 10->w1, 10->w1(40=w0: w1 has 30<40 so w1),
	// -> w1=50, w0=40 -> 50 + sync.
	got := makespan(costs, 2, false, 5)
	if got != 50+5 {
		t.Fatalf("greedy makespan = %d, want 55", got)
	}
	// LPT gives the same here but never worse than arrival order for
	// this skewed case.
	lpt := makespan(costs, 2, true, 5)
	if lpt > got {
		t.Fatalf("LPT %d worse than arrival %d", lpt, got)
	}
}

func TestMakespanImbalanceDominatedByLargestBlock(t *testing.T) {
	// The paper's point: one huge VABlock bounds the parallel batch.
	costs := []sim.Time{1000, 1, 1, 1}
	got := makespan(costs, 4, true, 0)
	if got != 1000 {
		t.Fatalf("imbalanced makespan = %d, want 1000", got)
	}
}

// Property: makespan with w workers is between sum/w and sum (ignoring
// sync), and never below the largest element.
func TestMakespanProperty(t *testing.T) {
	f := func(raw []uint16, w uint8) bool {
		workers := int(w%7) + 1
		costs := make([]sim.Time, len(raw))
		var sum, max sim.Time
		for i, r := range raw {
			costs[i] = sim.Time(r)
			sum += costs[i]
			if costs[i] > max {
				max = costs[i]
			}
		}
		for _, lpt := range []bool{false, true} {
			got := makespan(costs, workers, lpt, 0)
			if len(costs) == 0 {
				if got != 0 {
					return false
				}
				continue
			}
			if got < max || got > sum {
				return false
			}
			if workers == 1 && got != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParallelServicingSpeedsUpScatteredBatches(t *testing.T) {
	// Random access scatters faults over many VABlocks: parallel
	// servicing helps. One worker vs four.
	mk := func(workers int) sim.Time {
		ucfg := noPrefetch()
		ucfg.ServiceWorkers = workers
		eng, drv, dev := newSystem(smallGPU(), ucfg)
		base := drv.Alloc(16 * mem.VABlockSize)
		first := mem.PageOf(base)
		rng := sim.NewRNG(5)
		runKernel(t, eng, dev, gpu.Kernel{
			NumBlocks: 8,
			BlockProgram: func(int) []gpu.Program {
				var prog gpu.Program
				for i := 0; i < 100; i++ {
					prog.Read(0, first+mem.PageID(rng.Uint64n(16*512)), 1)
				}
				return []gpu.Program{prog}
			},
		})
		var total sim.Time
		for _, b := range drv.Collector.Batches {
			total += b.Duration()
		}
		return total
	}
	serial := mk(1)
	parallel := mk(4)
	if parallel >= serial {
		t.Fatalf("4-worker batch time %d not below serial %d", parallel, serial)
	}
}

func TestAdaptiveBatchShrinksOnDuplicates(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.AdaptiveMin = 32
	eng, drv, dev := newPolicySystem(smallGPU(), ucfg, PolicySelection{BatchSizing: "adaptive"})
	base := drv.Alloc(mem.VABlockSize)
	var shared gpu.Program
	shared.Read(0, mem.PageOf(base), 16)
	// Many blocks hammering the same pages -> dup-heavy batches.
	runKernel(t, eng, dev, gpu.Kernel{
		NumBlocks: 16,
		BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{shared}
		},
	})
	if got := drv.EffectiveBatchSize(); got >= drv.Config().BatchSize {
		t.Fatalf("adaptive batch did not shrink: %d", got)
	}
	if got := drv.EffectiveBatchSize(); got < 32 {
		t.Fatalf("adaptive batch below floor: %d", got)
	}
}

func TestAdaptiveBatchGrowsBack(t *testing.T) {
	d := &Driver{cfg: Config{AdaptiveMin: 32, BatchSize: 256}, effBatch: 64}
	rec := batchRec(64, 2) // full batch, 3% dups
	adaptiveSizer{}.Update(d, rec)
	if d.effBatch != 128 {
		t.Fatalf("effBatch = %d, want 128", d.effBatch)
	}
	adaptiveSizer{}.Update(d, batchRec(128, 3))
	if d.effBatch != 256 {
		t.Fatalf("effBatch = %d, want 256 (capped)", d.effBatch)
	}
	adaptiveSizer{}.Update(d, batchRec(256, 4))
	if d.effBatch != 256 {
		t.Fatalf("effBatch = %d, want to stay at max", d.effBatch)
	}
	// A dup-heavy batch halves it.
	adaptiveSizer{}.Update(d, batchRec(256, 200))
	if d.effBatch != 128 {
		t.Fatalf("effBatch = %d, want 128 after dup storm", d.effBatch)
	}
}

func batchRec(raw, dups int) *trace.BatchRecord {
	return &trace.BatchRecord{RawFaults: int32(raw), Type1Dups: int32(dups)}
}

func TestAsyncUnmapMovesCostOffFaultPath(t *testing.T) {
	mkRun := func(async bool) (*Driver, sim.Time) {
		ucfg := noPrefetch()
		ucfg.AsyncUnmap = async
		eng, drv, dev := newSystem(smallGPU(), ucfg)
		base := drv.Alloc(2*mem.VABlockSize, WithHostInit(8))
		if async {
			drv.PreUnmapAllocations()
		}
		runKernel(t, eng, dev, streamKernel(base, 2*mem.PagesPerVABlock))
		var unmap sim.Time
		for _, b := range drv.Collector.Batches {
			unmap += b.TUnmap
		}
		return drv, unmap
	}
	_, syncUnmap := mkRun(false)
	asyncDrv, asyncUnmap := mkRun(true)
	if syncUnmap <= 0 {
		t.Fatal("baseline paid no fault-path unmap")
	}
	if asyncUnmap != 0 {
		t.Fatalf("async run still paid %d fault-path unmap", asyncUnmap)
	}
	st := asyncDrv.Stats()
	if st.AsyncUnmapCalls != 2 || st.AsyncUnmapTime <= 0 {
		t.Fatalf("async stats = %+v", st)
	}
}

func TestCrossBlockPrefetchEliminatesFirstTouches(t *testing.T) {
	eng, drv, dev := newPolicySystem(smallGPU(), DefaultConfig(), PolicySelection{Prefetch: "cross-block"})
	base := drv.Alloc(6 * mem.VABlockSize)
	// Touch only the first block; cross-block prefetch should walk the
	// allocation forward.
	runKernel(t, eng, dev, streamKernel(base, mem.PagesPerVABlock))
	if drv.Stats().CrossBlockPages == 0 {
		t.Fatal("no cross-block prefetch pages")
	}
	if drv.ResidentPages() <= mem.PagesPerVABlock {
		t.Fatalf("resident = %d, want beyond the faulted block", drv.ResidentPages())
	}
	// Prefetch never leaves the allocation.
	if drv.ResidentPages() > 6*mem.PagesPerVABlock {
		t.Fatalf("prefetch escaped allocation: %d pages", drv.ResidentPages())
	}
}

func TestCrossBlockPrefetchStopsAtAllocationEnd(t *testing.T) {
	eng, drv, dev := newPolicySystem(smallGPU(), DefaultConfig(), PolicySelection{Prefetch: "cross-block"})
	base := drv.Alloc(2 * mem.VABlockSize) // short allocation
	drv.Alloc(4 * mem.VABlockSize)         // neighbour must stay cold
	runKernel(t, eng, dev, streamKernel(base, mem.PagesPerVABlock))
	if got := drv.ResidentPages(); got > 2*mem.PagesPerVABlock {
		t.Fatalf("prefetch crossed into the next allocation: %d pages", got)
	}
}

func TestEvictionPolicies(t *testing.T) {
	for _, pol := range []string{"lru", "fifo", "random", "lfu"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			ucfg := noPrefetch()
			ucfg.GPUMemBytes = 2 * mem.VABlockSize
			eng, drv, dev := newPolicySystem(smallGPU(), ucfg, PolicySelection{Eviction: pol})
			npages := 6 * mem.PagesPerVABlock
			base := drv.Alloc(uint64(npages) * mem.PageSize)
			runKernel(t, eng, dev, streamKernel(base, npages))
			if drv.Stats().Evictions < 4 {
				t.Fatalf("%s: evictions = %d", pol, drv.Stats().Evictions)
			}
			if drv.ChunksInUse() > 2 {
				t.Fatalf("%s: capacity exceeded", pol)
			}
		})
	}
}

func TestMemoryStatsExposed(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	base := drv.Alloc(4 * mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 4*mem.PagesPerVABlock))
	ms := drv.MemoryStats()
	if ms.FailedAllocs == 0 {
		t.Fatal("no failed allocations under oversubscription")
	}
	if ms.PeakInUse != 2 {
		t.Fatalf("peak = %d, want 2", ms.PeakInUse)
	}
}

func TestLFUKeepsHotBlock(t *testing.T) {
	// Two-chunk GPU; block H is accessed repeatedly (hot), blocks C1..C3
	// stream through cold. LFU must never evict H once hot, while LRU
	// (blind to hits) evicts it as its migration ages.
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	eng, drv, dev := newPolicySystem(smallGPU(), ucfg, PolicySelection{Eviction: "lfu"})
	base := drv.Alloc(4 * mem.VABlockSize)
	hot := mem.PageOf(base)
	hotBlock := hot.VABlock()

	// Dependent computes serialize the sequence, so hot-block re-reads
	// hit (and count) before each cold stream forces an eviction.
	var prog gpu.Program
	prog.Read(0, hot, 32)
	prog.Compute(sim.Microsecond, gpu.Regs(0))
	for c := 1; c <= 3; c++ {
		cold := hot + mem.PageID(c*mem.PagesPerVABlock)
		prog.Read(0, hot, 32) // hits
		prog.Compute(sim.Microsecond, gpu.Regs(0))
		prog.Read(1, cold, 64)
		prog.Compute(sim.Microsecond, gpu.Regs(1))
		prog.Read(0, hot, 32) // more hits
		prog.Compute(sim.Microsecond, gpu.Regs(0))
	}
	runKernel(t, eng, dev, gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
		return []gpu.Program{prog}
	}})
	if drv.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
	for _, b := range drv.Collector.Batches {
		for _, eb := range b.EvictedBlocks {
			if eb == hotBlock {
				t.Fatal("LFU evicted the hot block despite counter hits")
			}
		}
	}
	if dev.Counters.Total() == 0 {
		t.Fatal("counters never recorded hits")
	}
}
