package hostos

import (
	"fmt"

	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// CostModel holds the virtual-time costs of host OS operations on the UVM
// fault path. Defaults are calibrated so the paper's shape results hold
// (see DESIGN.md §5); they are not claimed to match the authors' testbed.
type CostModel struct {
	// UnmapBase is the fixed cost of one unmap_mapping_range() call.
	UnmapBase sim.Time
	// UnmapPerPage is the additional cost per CPU-resident page unmapped
	// (PTE teardown plus dirty-page/cache work).
	UnmapPerPage sim.Time
	// UnmapThreadFactor scales unmap cost with the number of additional
	// CPU threads whose TLBs may cache the mapping: every extra thread
	// adds this fraction of the base+per-page cost (IPI shootdowns,
	// cross-core cache traffic). This is the mechanism behind Figure 11's
	// single- vs multi-threaded HPGMG gap.
	UnmapThreadFactor float64
	// PopulatePerPage is the cost of zero-filling one newly allocated
	// page ("page population" in §5.1).
	PopulatePerPage sim.Time
	// DMAMapPerPage is the cost of creating one page's DMA mapping to
	// the GPU (IOMMU/PTE work, excluding radix-tree bookkeeping).
	DMAMapPerPage sim.Time
	// DMAMapPerNode is the cost per radix-tree node allocated while
	// storing the reverse DMA mapping; tree growth makes first-touch
	// batches intermittently expensive (Figure 14).
	DMAMapPerNode sim.Time
}

// DefaultCostModel returns the calibrated host-OS cost constants.
func DefaultCostModel() CostModel {
	return CostModel{
		UnmapBase:         8 * sim.Microsecond,
		UnmapPerPage:      600 * sim.Nanosecond,
		UnmapThreadFactor: 0.20,
		PopulatePerPage:   250 * sim.Nanosecond,
		DMAMapPerPage:     250 * sim.Nanosecond,
		DMAMapPerNode:     1200 * sim.Nanosecond,
	}
}

// Stats aggregates host-OS work performed, for EXPERIMENTS.md reporting.
type Stats struct {
	UnmapCalls     int
	PagesUnmapped  int
	PagesPopulated int
	DMAPagesMapped int
	RadixNodes     int
	// PopulateFailures counts Populate calls that failed by injection.
	PopulateFailures int
	UnmapTime        sim.Time
	PopulateTime     sim.Time
	DMAMapTime       sim.Time
}

type blockMapping struct {
	pages   mem.PageSet // pages with live CPU PTEs
	threads uint64      // bitmask of CPU threads that touched the mapping
}

// VM models the host virtual-memory subsystem for one process: which pages
// hold live CPU mappings, which CPU threads touched them, and the radix
// tree recording which pages hold DMA mappings. All methods return the
// virtual-time cost of the operation; the caller (the UVM driver model)
// advances the clock.
type VM struct {
	cost CostModel
	// mapped is the per-VABlock CPU-mapping directory — a sparse
	// two-level structure rather than a map, for the same reason as the
	// driver's block directory: CPUMappedPages sits on every block's
	// service path and must stay an array probe at GB-scale VA spans.
	mapped mem.BlockDir[*blockMapping]
	// dma holds a key for every DMA-mapped page. Only its shape is
	// modelled: each node it allocates costs DMAMapPerNode, and no
	// address is stored.
	dma   RadixTree
	stats Stats
	inj   *faultinject.Injector
	// next is the process's managed-address cursor. Every device's
	// driver reserves its allocations here, so devices sharing this VM
	// never alias each other's VABlocks.
	next mem.Addr
}

// NewVM returns a host VM model using the given cost constants.
func NewVM(cost CostModel) *VM {
	return &VM{cost: cost, next: mem.VABlockSize} // keep address 0 unused
}

// Reserve claims size bytes of the process's managed address space and
// returns their base. size must be a whole number of VABlocks.
func (vm *VM) Reserve(size mem.Addr) mem.Addr {
	base := vm.next
	vm.next += size
	return base
}

// Stats returns a copy of the accumulated host-OS statistics.
func (vm *VM) Stats() Stats { return vm.stats }

// SetInjector attaches a fault injector. A nil injector (the default)
// disables injection.
func (vm *VM) SetInjector(in *faultinject.Injector) { vm.inj = in }

// TouchCPU records that CPU thread `thread` wrote page index pageIdx of
// block: a host PTE now exists, so a later GPU fault in the block must pay
// unmap_mapping_range. This models application host-side initialization
// (e.g. OpenMP-parallel data init in HPGMG). thread is below MaxThreads
// (see CheckThreads).
func (vm *VM) TouchCPU(block mem.VABlockID, pageIdx, thread int) {
	bm := vm.mapped.Lookup(block)
	if bm == nil {
		bm = &blockMapping{}
		vm.mapped.Set(block, bm)
	}
	bm.pages.Set(pageIdx)
	bm.threads |= 1 << (uint(thread) % MaxThreads)
}

// CPUMappedPages returns how many pages of block hold live CPU mappings.
func (vm *VM) CPUMappedPages(block mem.VABlockID) int {
	if bm := vm.mapped.Lookup(block); bm != nil {
		return bm.pages.Count()
	}
	return 0
}

// TouchingThreads returns how many distinct CPU threads touched block.
func (vm *VM) TouchingThreads(block mem.VABlockID) int {
	if bm := vm.mapped.Lookup(block); bm != nil {
		n := 0
		for m := bm.threads; m != 0; m &= m - 1 {
			n++
		}
		return n
	}
	return 0
}

// UnmapMappingRange tears down all live CPU mappings within block, as the
// driver does when the GPU touches a VABlock partially resident on the
// host. It returns the virtual-time cost and the number of pages unmapped;
// a block with no live mappings costs nothing (the paper's Figure 13
// "lower level": a block evicted and re-fetched pays no unmap).
func (vm *VM) UnmapMappingRange(block mem.VABlockID) (cost sim.Time, unmapped int) {
	bm := vm.mapped.Lookup(block)
	if bm == nil || !bm.pages.Any() {
		return 0, 0
	}
	unmapped = bm.pages.Count()
	threads := vm.TouchingThreads(block)
	base := vm.cost.UnmapBase + sim.Time(unmapped)*vm.cost.UnmapPerPage
	// The explicit conversion rounds the product before the add, so no
	// platform fuses the two into one multiply-add (the Go spec lets a
	// compiler fuse x*y + z; arm64, ppc64le, s390x and riscv64 do), and
	// the cost is the same nanosecond everywhere.
	scale := 1 + float64(vm.cost.UnmapThreadFactor*float64(threads-1))
	cost = sim.Time(float64(base) * scale)
	bm.pages.Reset()
	bm.threads = 0
	vm.stats.UnmapCalls++
	vm.stats.PagesUnmapped += unmapped
	vm.stats.UnmapTime += cost
	return cost, unmapped
}

// Populate allocates and zero-fills n pages, returning the virtual-time
// cost. With fault injection enabled the allocation can fail with an
// error wrapping ErrAllocFailed; the caller is expected to shed memory
// pressure (evict, shrink batches) and retry.
func (vm *VM) Populate(n int) (sim.Time, error) {
	if vm.inj.HostAllocFails() {
		vm.stats.PopulateFailures++
		return 0, fmt.Errorf("hostos: populating %d pages: %w", n, ErrAllocFailed)
	}
	cost := sim.Time(n) * vm.cost.PopulatePerPage
	vm.stats.PagesPopulated += n
	vm.stats.PopulateTime += cost
	return cost, nil
}

// MapDMA creates DMA mappings for every page of block and records each
// page in the radix tree, returning the total cost. The driver performs
// this for the whole 2 MB region on first GPU touch (§5.2).
func (vm *VM) MapDMA(block mem.VABlockID) sim.Time {
	var cost sim.Time
	first := uint64(block.FirstPage())
	for i := 0; i < mem.PagesPerVABlock; i++ {
		newNodes := vm.dma.Insert(first+uint64(i), 0)
		cost += vm.cost.DMAMapPerPage + sim.Time(newNodes)*vm.cost.DMAMapPerNode
		vm.stats.RadixNodes += newNodes
	}
	vm.stats.DMAPagesMapped += mem.PagesPerVABlock
	vm.stats.DMAMapTime += cost
	return cost
}

// HasDMA reports whether page p has a live DMA mapping.
func (vm *VM) HasDMA(p mem.PageID) bool {
	_, ok := vm.dma.Lookup(uint64(p))
	return ok
}
