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

// Config holds the driver's parameters. The policies themselves (eviction,
// prefetch, batch sizing, architecture) are chosen by registry name in a
// PolicySelection passed to NewDriver; Config carries only the knobs those
// policies read, plus the §6 extensions that are parameters rather than
// policies: parallel VABlock servicing and asynchronous pre-unmapping.
type Config struct {
	// BatchSize is the maximum faults fetched per batch, at most
	// MaxBatchSize. UVM's default is 256; Figure 9 sweeps it up to 6144.
	BatchSize int
	// GPUMemBytes is the device memory capacity available to managed
	// allocations; exceeding it triggers VABlock-granular eviction.
	GPUMemBytes uint64
	// PrefetchEnabled picks the prefetch policy when PolicySelection
	// names none: "tree" when set, "off" when not. A named prefetch
	// policy ignores it.
	PrefetchEnabled bool
	// PrefetchThreshold is the subtree occupancy fraction above which
	// the tree planner prefetches the whole subtree. UVM's default is
	// 0.51; NewDriver checks it whenever the tree planner runs.
	PrefetchThreshold float64

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

	// AdaptiveMin floors the effective batch size: the adaptive
	// batch-sizing policies keep it within [AdaptiveMin, BatchSize], and
	// host allocation pressure never shrinks it below (default 64).
	AdaptiveMin int

	// AsyncUnmap performs CPU page unmapping preemptively at kernel
	// launch instead of on the fault path (§6: "performing these
	// operations asynchronously and preemptively may be preferable when
	// an application shifts to GPU compute").
	AsyncUnmap bool

	// EvictionSeed seeds the "random" eviction policy.
	EvictionSeed uint64

	// AccessCounterThreshold is the per-block remote-access count at which
	// the access-counter architecture promotes a remote-mapped block to
	// GPU residency (0 lets the architecture apply its default).
	AccessCounterThreshold int

	// Costs are the driver-side time constants.
	Costs CostModel
}

// DefaultConfig returns UVM's default (shipped-driver) parameters with a
// capacity suitable for scaled experiments (see DESIGN.md §1 on scaling).
func DefaultConfig() Config {
	return Config{
		BatchSize:         256,
		GPUMemBytes:       256 << 20,
		PrefetchEnabled:   true,
		PrefetchThreshold: 0.51,
		ServiceWorkers:    1,
		WorkerSync:        3 * sim.Microsecond,
		AdaptiveMin:       64,
		EvictionSeed:      1,
		Costs:             DefaultCostModel(),
	}
}

// MaxBatchSize bounds Config.BatchSize: a batch's per-VABlock fault
// histogram (trace.BatchRecord.VABlockFaults) counts in uint16 cells.
const MaxBatchSize = 1<<16 - 1

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("uvm: BatchSize = %d, need >= 1", c.BatchSize)
	case c.BatchSize > MaxBatchSize:
		return fmt.Errorf("uvm: BatchSize = %d, need <= %d", c.BatchSize, MaxBatchSize)
	case c.GPUMemBytes < mem.VABlockSize:
		return fmt.Errorf("uvm: GPUMemBytes = %d, need >= one VABlock (%d)",
			c.GPUMemBytes, mem.VABlockSize)
	case c.ServiceWorkers < 1:
		return fmt.Errorf("uvm: ServiceWorkers = %d, need >= 1", c.ServiceWorkers)
	case c.AccessCounterThreshold < 0:
		return fmt.Errorf("uvm: AccessCounterThreshold = %d, need >= 0", c.AccessCounterThreshold)
	}
	return nil
}

// CapacityBlocks returns how many 2 MB chunks fit in GPU memory.
func (c Config) CapacityBlocks() int {
	return int(c.GPUMemBytes / mem.VABlockSize)
}
