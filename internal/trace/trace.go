// Package trace defines the telemetry records the instrumented driver
// emits: one record per fault batch with the targeted high-resolution
// timers and event counters of the paper's modified nvidia-uvm driver,
// plus optional per-fault records for fine-grain fault-behaviour plots
// (Figures 3-5, 16c, 17c).
package trace

import (
	"slices"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// BatchRecord is the per-batch metadata logged at the end of each batch:
// one entry of the run's batch log, kept for every run. It holds only
// what its readers use, at the narrowest width that fits. A batch holds
// at most uvm.MaxBatchSize (65,535) faults, so its counters are int32;
// byte counts and timers stay 64-bit. The per-batch lists are exact-size
// copies (len == cap) made once when the batch lands, and an empty list
// is nil. The serviced page spans, wanted only by fault-behaviour plots,
// live in the Collector's span log instead.
type BatchRecord struct {
	Start sim.Time // first fetch of the batch
	End   sim.Time // replay completion
	ID    int32

	// Fault composition.
	RawFaults   int32 // fault records fetched from the GPU buffer
	Type1Dups   int32 // duplicates from the same µTLB (§4.2 type 1)
	Type2Dups   int32 // duplicates across µTLBs (§4.2 type 2)
	UniquePages int32 // distinct pages after dedup
	StalePages  int32 // faulted pages already resident on arrival
	VABlocks    int32 // distinct VABlocks touched

	// Work performed.
	PagesMigrated   int32
	PrefetchedPages int32 // migrated pages beyond the faulted set
	Evictions       int32 // VABlocks evicted
	UnmapPages      int32 // CPU pages unmapped via unmap_mapping_range
	NewDMABlocks    int32 // VABlocks that paid first-touch DMA mapping setup
	BytesMigrated   uint64
	EvictedBytes    uint64

	// Injected-fault recovery work (zero unless fault injection is on;
	// the CSV export carries it only for injected runs, keeping
	// uninjected exports bit-identical).
	InjMigFailures    int32 // transient migration transfer failures retried
	InjHostAllocFails int32 // host allocation failures degraded around

	// Time components. TSetup is the driver's fixed batch-open cost in
	// its effective cost model (a telemetry field: not in the batch CSV);
	// the rest are the instrumented driver's timers. Stages partitions
	// the batch's duration over them.
	TSetup     sim.Time
	TFetch     sim.Time
	TDedup     sim.Time
	TBlockMgmt sim.Time
	TPopulate  sim.Time
	TPageTable sim.Time
	TDMAMap    sim.Time
	TUnmap     sim.Time
	TTransfer  sim.Time
	TEvict     sim.Time
	TReplay    sim.Time

	// EvictedBlocks lists the blocks this batch evicted, in eviction
	// order (fault-behaviour plots, eviction audits).
	EvictedBlocks []mem.VABlockID
	// VABlockFaults holds the raw fault count of each distinct VABlock
	// in the batch, in ascending block order (Table 3).
	VABlockFaults []uint16
}

// Duration returns the wall-clock (virtual) batch time.
func (b *BatchRecord) Duration() sim.Time { return b.End - b.Start }

// DupFaults returns the total duplicate faults in the batch.
func (b *BatchRecord) DupFaults() int { return int(b.Type1Dups + b.Type2Dups) }

// Batch-time stages, the indexes into Stages: the top-level phases plus
// the service window's component timers, in breakdown-table order.
const (
	StageSetup = iota
	StageFetch
	StageDedup
	StageBlockMgmt
	StageDMAMap
	StageUnmap
	StagePopulate
	StageTransfer
	StagePageTable
	StageEvict
	StageReplay
	StageOther
	NumStages
)

// StageNames names each stage, indexed like Stages.
var StageNames = [NumStages]string{
	"batch_setup",
	"fetch",
	"dedup",
	"block_mgmt",
	"dma_map",
	"unmap",
	"populate",
	"transfer",
	"page_table",
	"evict",
	"replay",
	"service_other",
}

// Stages decomposes the batch's time into the twelve stages — the one
// decomposition the tracer, the profiler and analysis all read. The
// service window is what the duration leaves after setup, fetch, dedup
// and replay; a negative window (a record not produced by the driver
// pipeline) folds into setup, so setup, fetch, dedup, the window and
// replay always sum to End-Start. The component timers are serial work,
// so under ServiceWorkers > 1 they can exceed the parallel window;
// service_other is the window they leave uncovered, clamped at 0.
func (b *BatchRecord) Stages() [NumStages]sim.Time {
	setup := b.TSetup
	service := b.Duration() - setup - b.TFetch - b.TDedup - b.TReplay
	if service < 0 {
		setup += service
		service = 0
	}
	st := [NumStages]sim.Time{setup, b.TFetch, b.TDedup, b.TBlockMgmt, b.TDMAMap,
		b.TUnmap, b.TPopulate, b.TTransfer, b.TPageTable, b.TEvict, b.TReplay, 0}
	other := service
	for _, d := range st[StageBlockMgmt:StageReplay] {
		other -= d
	}
	st[StageOther] = max(other, 0)
	return st
}

// Share returns the stage's share of the batch's duration (0 for an
// empty batch): transfer for Figure 7, unmap for Figure 11, dma_map for
// Figure 14's "GPU VABlock state initialization".
func (b *BatchRecord) Share(stage int) float64 {
	d := b.Duration()
	if d <= 0 {
		return 0
	}
	return float64(b.Stages()[stage]) / float64(d)
}

// Collector holds a driver's run logs: the batch log, always, and the
// fault and span logs when asked for.
type Collector struct {
	// KeepFaults retains every fetched fault (memory-heavy; enable for
	// fault-timeline experiments only).
	KeepFaults bool
	// KeepSpans retains the page spans each batch migrated in.
	KeepSpans bool

	// The logs grow by doubling (slices.Grow by their own length). Past
	// 256 elements append's step falls from 2× toward 1.25×, so a log
	// appended a record at a time would copy itself several times over;
	// doubling bounds what it allocates at about twice its final
	// capacity.
	Batches []BatchRecord
	Faults  []gpu.Fault
	// FaultBatch[i] is the batch ID that fetched Faults[i].
	FaultBatch []int
	// Spans holds the page spans each batch migrated in, in service
	// order; SpanBatch[i] is the batch ID that migrated Spans[i].
	Spans     []mem.Span
	SpanBatch []int
}

// AddBatch appends a batch record, assigning its ID, and returns the ID.
func (c *Collector) AddBatch(b BatchRecord) int {
	id := len(c.Batches)
	b.ID = int32(id)
	if len(c.Batches) == cap(c.Batches) {
		c.Batches = slices.Grow(c.Batches, len(c.Batches))
	}
	c.Batches = append(c.Batches, b)
	return id
}

// AddFaults appends the fetched faults of batch id.
func (c *Collector) AddFaults(id int, faults []gpu.Fault) {
	if !c.KeepFaults {
		return
	}
	c.Faults = appendDoubling(c.Faults, faults)
	c.FaultBatch = appendID(c.FaultBatch, id, len(faults))
}

// AddSpans appends the page spans batch id migrated in.
func (c *Collector) AddSpans(id int, spans []mem.Span) {
	if !c.KeepSpans {
		return
	}
	c.Spans = appendDoubling(c.Spans, spans)
	c.SpanBatch = appendID(c.SpanBatch, id, len(spans))
}

// appendDoubling appends vs to log, growing it by at least its own length.
func appendDoubling[T any](log, vs []T) []T {
	if len(log)+len(vs) > cap(log) {
		log = slices.Grow(log, max(len(log), len(vs)))
	}
	return append(log, vs...)
}

// appendID appends n copies of id to log, growing it like appendDoubling.
func appendID(log []int, id, n int) []int {
	if len(log)+n > cap(log) {
		log = slices.Grow(log, max(len(log), n))
	}
	for range n {
		log = append(log, id)
	}
	return log
}
