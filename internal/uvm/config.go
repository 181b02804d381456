// Package uvm implements the modeled UVM driver — the paper's subject of
// study. The driver is the host-side fault-servicing engine: it drains the
// GPU fault buffer into batches (the fundamental unit of work, §3.2),
// services each batch VABlock by VABlock (dedup, allocation, eviction,
// population, DMA mapping, CPU unmapping, migration, page-table update),
// then flushes the buffer and issues a fault replay. Per-batch telemetry
// mirrors the paper's instrumented driver.
package uvm

import (
	"fmt"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// CostModel holds the driver-side virtual-time costs. Host-OS costs
// (unmap, populate, DMA-map) live in hostos.CostModel; link costs in
// interconnect.Config.
type CostModel struct {
	// WakeupLatency is the delay from interrupt delivery to the worker
	// thread starting its fetch (scheduler latency).
	WakeupLatency sim.Time
	// BatchSetup is the fixed overhead to open a batch.
	BatchSetup sim.Time
	// FetchPerFault is the cost to read one fault record from the GPU
	// fault buffer (MMIO/BAR reads are slow).
	FetchPerFault sim.Time
	// DedupPerFault is the per-fault cost of duplicate filtering.
	DedupPerFault sim.Time
	// PerVABlock is the fixed management cost per distinct VABlock in a
	// batch; each VABlock is a separate processing step (§2.2).
	PerVABlock sim.Time
	// PageTablePerPage is the GPU page-table update cost per migrated
	// page.
	PageTablePerPage sim.Time
	// ReplayCost is the cost of the buffer flush plus replay issue.
	ReplayCost sim.Time
	// EvictBase is the fixed cost per VABlock eviction: failed
	// allocation, candidate selection, and migration restart (§5.1).
	EvictBase sim.Time
	// EvictPerPage is the per-resident-page eviction cost beyond the
	// writeback transfer itself (GPU PTE teardown).
	EvictPerPage sim.Time
}

// DefaultCostModel returns the calibrated driver cost constants.
func DefaultCostModel() CostModel {
	return CostModel{
		WakeupLatency:    20 * sim.Microsecond,
		BatchSetup:       30 * sim.Microsecond,
		FetchPerFault:    1500 * sim.Nanosecond,
		DedupPerFault:    150 * sim.Nanosecond,
		PerVABlock:       6 * sim.Microsecond,
		PageTablePerPage: 150 * sim.Nanosecond,
		ReplayCost:       40 * sim.Microsecond,
		EvictBase:        15 * sim.Microsecond,
		EvictPerPage:     100 * sim.Nanosecond,
	}
}

// EvictionPolicy names a registered VABlock replacement policy. The
// shipped driver uses LRU, which (with no page-hit information) degrades
// to earliest-allocated order (§5.4); the alternatives exist because the
// paper notes "this LRU policy may not be optimal". The value is a
// registry key (see registry.go): the empty string resolves to EvictLRU,
// anything else must name a registered policy or Validate rejects it with
// an UnknownPolicyError.
type EvictionPolicy string

const (
	// EvictLRU evicts the block with the oldest last-migration batch.
	EvictLRU EvictionPolicy = "lru"
	// EvictFIFO evicts in chunk allocation order.
	EvictFIFO EvictionPolicy = "fifo"
	// EvictRandom evicts a seeded-random resident block.
	EvictRandom EvictionPolicy = "random"
	// EvictLFU evicts the block with the fewest recorded resident-access
	// hits, using the GPU's access counters — the hit information §5.4
	// says the shipped LRU lacks. Enabling it turns the counters on.
	EvictLFU EvictionPolicy = "lfu"
)

// String names the policy ("unknown" for unregistered names).
func (p EvictionPolicy) String() string {
	if p == "" {
		return string(EvictLRU)
	}
	if _, ok := evictionRegistry.lookup(string(p)); ok {
		return string(p)
	}
	return "unknown"
}

// Config describes the driver policies under study. Beyond the shipped
// UVM behaviour, it exposes the improvements §6 of the paper proposes so
// they can be evaluated: parallel VABlock servicing, duplicate-adaptive
// batch sizing, asynchronous pre-unmapping, and cross-VABlock prefetch.
type Config struct {
	// BatchSize is the maximum faults fetched per batch. UVM's default
	// is 256; Figure 9 sweeps it up to 6144.
	BatchSize int
	// GPUMemBytes is the device memory capacity available to managed
	// allocations; exceeding it triggers VABlock-granular eviction.
	GPUMemBytes uint64
	// PrefetchEnabled enables the density (tree-based) prefetcher.
	PrefetchEnabled bool
	// PrefetchThreshold is the subtree occupancy fraction above which
	// the whole subtree is prefetched. UVM's default is 0.51.
	PrefetchThreshold float64
	// Upgrade64K migrates whole 64 KB regions per fault when prefetching
	// is enabled (the x86 4KB->64KB upgrade, §2.2).
	Upgrade64K bool

	// ServiceWorkers parallelizes per-VABlock servicing across this
	// many driver workers (1 = the shipped serial driver). The paper's
	// §6 "Driver Serialization" discussion proposes this and predicts
	// workload imbalance; the ablation experiments measure it.
	ServiceWorkers int
	// LoadBalanceLPT assigns blocks to workers longest-processing-time-
	// first instead of arrival order when ServiceWorkers > 1.
	LoadBalanceLPT bool
	// WorkerSync is the per-batch synchronization overhead paid per
	// additional worker.
	WorkerSync sim.Time

	// AdaptiveBatch tunes the effective batch size from the previous
	// batch's duplicate rate (§6: "tune batch size based on the number
	// of duplicate faults received"), within [AdaptiveMin, BatchSize].
	AdaptiveBatch bool
	// AdaptiveMin floors the adaptive batch size (default 64).
	AdaptiveMin int
	// BatchSizing, when non-empty, names the registered batch-sizing
	// policy directly, for policies the boolean knobs cannot derive
	// (e.g. "degraded-aware"). Empty derives the name from
	// AdaptiveBatch as before.
	BatchSizing string

	// AsyncUnmap performs CPU page unmapping preemptively at kernel
	// launch instead of on the fault path (§6: "performing these
	// operations asynchronously and preemptively may be preferable when
	// an application shifts to GPU compute").
	AsyncUnmap bool

	// CrossBlockPrefetch extends the prefetcher beyond a single VABlock
	// (§6: "increasing the prefetching scope"): when a faulting block
	// becomes fully resident, up to N following blocks of the same
	// allocation are migrated eagerly in the same batch.
	CrossBlockPrefetch int

	// Eviction selects the replacement policy (default LRU, as shipped).
	Eviction EvictionPolicy
	// EvictionSeed seeds EvictRandom.
	EvictionSeed uint64

	// Architecture names the registered UVM architecture (the stage graph
	// itself — see arch.go). Empty resolves to "host-driven", the paper's
	// design; anything else must name a registered architecture or
	// Validate rejects it with an UnknownPolicyError.
	Architecture string
	// AccessCounterThreshold is the per-block remote-access count at which
	// the access-counter architecture promotes a remote-mapped block to
	// GPU residency (0 lets the architecture apply its default).
	AccessCounterThreshold int

	// Costs are the driver-side time constants.
	Costs CostModel
}

// DefaultConfig returns UVM's default (shipped-driver) policies with a
// capacity suitable for scaled experiments (see DESIGN.md §1 on scaling).
func DefaultConfig() Config {
	return Config{
		BatchSize:         256,
		GPUMemBytes:       256 << 20,
		PrefetchEnabled:   true,
		PrefetchThreshold: 0.51,
		Upgrade64K:        true,
		ServiceWorkers:    1,
		WorkerSync:        3 * sim.Microsecond,
		AdaptiveMin:       64,
		Eviction:          EvictLRU,
		EvictionSeed:      1,
		Costs:             DefaultCostModel(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("uvm: BatchSize = %d, need >= 1", c.BatchSize)
	case c.GPUMemBytes < mem.VABlockSize:
		return fmt.Errorf("uvm: GPUMemBytes = %d, need >= one VABlock (%d)",
			c.GPUMemBytes, mem.VABlockSize)
	case c.PrefetchEnabled && (c.PrefetchThreshold <= 0 || c.PrefetchThreshold > 1):
		return fmt.Errorf("uvm: PrefetchThreshold = %v, need in (0, 1]", c.PrefetchThreshold)
	case c.ServiceWorkers < 1:
		return fmt.Errorf("uvm: ServiceWorkers = %d, need >= 1", c.ServiceWorkers)
	case c.AdaptiveBatch && (c.AdaptiveMin < 1 || c.AdaptiveMin > c.BatchSize):
		return fmt.Errorf("uvm: AdaptiveMin = %d, need in [1, BatchSize]", c.AdaptiveMin)
	case c.CrossBlockPrefetch < 0:
		return fmt.Errorf("uvm: CrossBlockPrefetch = %d, need >= 0", c.CrossBlockPrefetch)
	case c.AccessCounterThreshold < 0:
		return fmt.Errorf("uvm: AccessCounterThreshold = %d, need >= 0", c.AccessCounterThreshold)
	}
	if c.Architecture != "" {
		if _, ok := architectureRegistry.lookup(c.Architecture); !ok {
			return architectureRegistry.unknown(c.Architecture)
		}
	}
	if c.Eviction != "" {
		if _, ok := evictionRegistry.lookup(string(c.Eviction)); !ok {
			return evictionRegistry.unknown(string(c.Eviction))
		}
	}
	if c.BatchSizing != "" {
		if _, ok := sizingRegistry.lookup(c.BatchSizing); !ok {
			return sizingRegistry.unknown(c.BatchSizing)
		}
	}
	return nil
}

// BatchSizingName derives the registry name matching the batch-sizing
// knobs: the explicit BatchSizing override when set, else "adaptive"
// (duplicate-driven resizing) or "fixed".
func (c Config) BatchSizingName() string {
	if c.BatchSizing != "" {
		return c.BatchSizing
	}
	if c.AdaptiveBatch {
		return "adaptive"
	}
	return "fixed"
}

// ArchitectureName returns the effective architecture registry name
// ("host-driven" when the field is empty).
func (c Config) ArchitectureName() string {
	if c.Architecture == "" {
		return "host-driven"
	}
	return c.Architecture
}

// CapacityBlocks returns how many 2 MB chunks fit in GPU memory.
func (c Config) CapacityBlocks() int {
	return int(c.GPUMemBytes / mem.VABlockSize)
}
