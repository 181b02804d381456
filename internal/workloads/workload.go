// Package workloads models the memory-access geometry of the paper's
// benchmarks (Table 1) plus its synthetic kernels: page-granular GPU
// access patterns that drive the UVM driver the way the real applications
// do. The paper's fault-level results depend on access geometry — spatial
// locality, VABlock spread, reuse, host-side initialization — not on
// computed values, so each workload reproduces geometry only.
package workloads

import (
	"slices"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// Alloc describes one managed allocation a workload needs.
type Alloc struct {
	Name  string
	Bytes uint64
	// HostInit: the CPU initializes the data before the first kernel
	// (live CPU mappings -> unmap on first GPU touch).
	HostInit bool
	// HostThreads is the number of CPU threads performing that
	// initialization (Figure 11 contrasts 1 vs many).
	HostThreads int
}

// HostTouch is a CPU-side phase re-touching a range (e.g. host work
// between GPU kernels), restoring live CPU mappings on non-resident pages.
type HostTouch struct {
	Base    mem.Addr
	Bytes   uint64
	Threads int
}

// Phase is one step of a workload: optional host touches followed by an
// optional kernel (Kernel.NumBlocks == 0 means a host-only phase).
type Phase struct {
	Name        string
	HostTouches []HostTouch
	Kernel      gpu.Kernel
}

// Workload is a benchmark: allocations plus a phase list.
type Workload interface {
	Name() string
	Allocs() []Alloc
	// Phases binds the workload to its allocation base addresses, in
	// the order returned by Allocs.
	Phases(bases []mem.Addr) []Phase
}

// spanIn returns the first page and the page count covering bytes
// [off, off+length) of the allocation at base (count 0 for no bytes).
func spanIn(base mem.Addr, off, length uint64) (mem.PageID, int) {
	if length == 0 {
		return 0, 0
	}
	first := mem.PageOf(base + mem.Addr(off))
	last := mem.PageOf(base + mem.Addr(off+length-1))
	return first, int(last-first) + 1
}

// dedupPages sorts and deduplicates a page list in place.
func dedupPages(pages []mem.PageID) []mem.PageID {
	if len(pages) < 2 {
		return pages
	}
	slices.Sort(pages)
	return slices.Compact(pages)
}
