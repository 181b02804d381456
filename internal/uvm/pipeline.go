package uvm

// pipeline.go — the staged batch-servicing pipeline.
//
// The driver services each fault batch through an explicit sequence of
// stages mirroring the paper's phase decomposition (§2.2/§5):
//
//	fetch (fetch.go, async)        — drain the fault buffer
//	dedup (dedup.go)               — duplicate classification (§4.2),
//	                                 stale filtering, VABlock grouping
//	service (this file)            — per-VABlock block pipeline
//	cross-block (prefetchplan.go)  — eager whole-block migration (§6)
//	replay (replay.go)             — makespan, batch sizing, replay issue
//
// Within the service stage, each VABlock runs through a second pipeline
// of block steps:
//
//	residency (residency.go)       — chunk allocation/eviction, DMA map,
//	                                 CPU unmap (§4.4, §5.1, §5.4)
//	prefetch-plan (prefetchplan.go)— migration set planning (§5.2)
//	populate (transfer.go)         — first-touch zero-fill (§5.1)
//	transfer (transfer.go)         — span coalescing, link transfer,
//	                                 page-table update
//
// Stage costs flow into the existing trace.BatchRecord fields (TFetch,
// TDedup, TBlockMgmt, TDMAMap, TUnmap, TPopulate, TTransfer, TPageTable,
// TEvict, TReplay) and the obs span taxonomy derived from them —
// unchanged from the monolithic driver, and bit-identical batch for
// batch (testdata/digests_*.golden is the proof).
//
// Ownership rules for the shared per-batch state: batchCtx and blockCtx
// are pooled on the Driver and valid only while inBatch is true; stages
// are stateless singletons and receive everything through the contexts.
// The batchScratch buffers inside batchCtx are owned by exactly one
// stage at a time (see batchScratch below); nothing retained past the
// batch — trace records, observer arguments — may alias them: the record's
// lists are exact-size copies made when the batch lands (replay.go). The
// one scratch list observers read, ServicedBlocks, is lent only for the
// EndBatch call.

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// batchCtx carries one batch through the pipeline: its start, raw faults
// and fetch cost, gathered by the async front-end (fetch.go), the record
// under construction, the accumulated virtual-time cost, and the pooled
// scratch.
type batchCtx struct {
	start  sim.Time
	faults []gpu.Fault
	tFetch sim.Time
	rec    trace.BatchRecord
	total  sim.Time
	sc     *batchScratch
}

// batchScratch holds the per-batch working structures of the fault
// servicing pipeline. serviceBatch used to rebuild all of them for every
// 256-fault batch, which dominated the hot path's allocation profile;
// instead they are pooled here and cleared (never carried over, never
// shared) at the start of each batch. Nothing in a batch record may alias
// these buffers — everything retained by the trace.Collector is copied.
//
// Ownership across the stage pipeline: keys/nonStale/blockFaults are
// written by the dedup stage and read-only afterwards; serviced is
// written by dedup and appended to by the cross-block stage; evicted is
// appended by eviction and keptSpans by the transfer step, and both are
// read when the batch lands; blockCosts accumulates across the service
// and cross-block stages and is consumed by replay; spans is the
// transfer step's migration staging, and candidates/evictSpans are
// evictOne's (a separate buffer because an eviction firing while a
// block's migration spans are staged is impossible today, but the split
// keeps the lifetimes trivially disjoint).
type batchScratch struct {
	// keys holds the dedup stage's packed (page, arrival) sort keys —
	// the struct-of-arrays replacement for the old per-batch maps.
	keys []uint64
	// nonStale lists the deduplicated pages not yet resident, ascending,
	// so per-VABlock groups are contiguous runs and need no map.
	nonStale []mem.PageID
	// serviced lists the batch's serviced VABlocks: dedup's faulted
	// blocks in ascending order (the first rec.VABlocks entries), then
	// the blocks the cross-block stage adds, in the order it runs them.
	// Every block on it that has state carries stamp in
	// blockState.batch, so membership is a stamp compare (addServiced).
	serviced []mem.VABlockID
	// stamp identifies the current batch.
	stamp      uint64
	blockCosts []sim.Time
	// spans holds the transfer step's migration spans. candidates is
	// evictOne's victim list, handed to EvictionStrategy.Pick, and
	// evictSpans its writeback spans.
	spans      []mem.Span
	candidates []int
	evictSpans []mem.Span

	// The batch record's lists and the span log's entries are built
	// here and copied out, each once at its exact length, when the
	// batch lands (replay.go): blockFaults is dedup's per-VABlock raw
	// fault histogram, evicted evictOne's victims, and keptSpans the
	// transfer step's spans when the collector keeps them.
	blockFaults []uint16
	evicted     []mem.VABlockID
	keptSpans   []mem.Span
}

// reset clears every buffer for a new batch, keeping capacity.
func (sc *batchScratch) reset() {
	sc.keys = sc.keys[:0]
	sc.nonStale = sc.nonStale[:0]
	sc.serviced = sc.serviced[:0]
	sc.stamp++
	sc.blockCosts = sc.blockCosts[:0]
	sc.blockFaults = sc.blockFaults[:0]
	sc.evicted = sc.evicted[:0]
	sc.keptSpans = sc.keptSpans[:0]
}

// addServiced appends bid to the batch's serviced list and stamps its
// state, if it has one yet; blockFor stamps a block it creates.
func (d *Driver) addServiced(bid mem.VABlockID) {
	d.scratch.serviced = append(d.scratch.serviced, bid)
	if b := d.blocks.Lookup(bid); b != nil {
		b.batch = d.scratch.stamp
	}
}

// ServicedBlocks lists the VABlocks the current batch serviced: the
// faulted blocks in ascending order, then the cross-block migrations in
// service order. The list is driver scratch, valid only during an
// Observer's EndBatch call; copy what outlives it.
func (d *Driver) ServicedBlocks() []mem.VABlockID { return d.scratch.serviced }

// blockCtx carries one VABlock through the block steps. For an eager
// cross-block migration (§6) pages is nil and eager is set: the plan
// step selects the whole block and the transfer step accounts the pages
// as cross-block prefetched.
type blockCtx struct {
	bid       mem.VABlockID
	pages     []mem.PageID
	eager     bool
	b         *blockState
	faulted   mem.PageSet
	toMigrate mem.PageSet
	cost      sim.Time
	// done, when set by a step, short-circuits the remaining block steps:
	// the block was fully serviced early (e.g. remote-mapped by the
	// access-counter gate instead of migrated).
	done bool
}

// stage is one batch-level phase. A stage reads and mutates the batch
// context; a returned error aborts the run (injection-fatal paths).
type stage interface {
	run(d *Driver, bc *batchCtx) error
}

// blockStep is one VABlock-level phase within the service stage.
type blockStep interface {
	name() string
	run(d *Driver, bc *batchCtx, blk *blockCtx) error
}

// Every architecture runs the batch stages of hostBatchStages (arch.go);
// the block-step order is the selected architecture's, dispatched
// through d.arch. Stages stay stateless singletons shared by every
// driver.

// serviceBatch runs the batch the fetch front-end gathered in d.batch
// through the stage pipeline. It is entered with the engine clock at
// batch start + TSetup + tFetch; the replay stage schedules the
// remainder of the batch's virtual cost.
func (d *Driver) serviceBatch() {
	bc := &d.batch
	bc.rec = trace.BatchRecord{
		Start:     bc.start,
		RawFaults: int32(len(bc.faults)),
		TSetup:    d.cfg.Costs.BatchSetup,
		TFetch:    bc.tFetch,
	}
	bc.total = 0
	bc.sc = &d.scratch
	bc.sc.reset()
	for _, st := range hostBatchStages {
		if err := st.run(d, bc); err != nil {
			d.fail(err)
			return
		}
	}
}

// serviceStage runs the block pipeline over each serviced VABlock: the
// sorted non-stale pages make every block a contiguous run, processed in
// ascending block order exactly as the monolithic driver did.
type serviceStage struct{}

func (serviceStage) run(d *Driver, bc *batchCtx) error {
	sc := bc.sc
	for lo := 0; lo < len(sc.nonStale); {
		bid := sc.nonStale[lo].VABlock()
		hi := lo + 1
		for hi < len(sc.nonStale) && sc.nonStale[hi].VABlock() == bid {
			hi++
		}
		c, err := d.runBlock(bid, sc.nonStale[lo:hi], false, bc)
		if err != nil {
			return err
		}
		sc.blockCosts = append(sc.blockCosts, c)
		lo = hi
	}
	return nil
}

// runBlock services one VABlock through the block steps and returns its
// virtual-time cost. eager marks a cross-block whole-block migration.
func (d *Driver) runBlock(bid mem.VABlockID, pages []mem.PageID, eager bool, bc *batchCtx) (sim.Time, error) {
	blk := &d.block
	blk.bid = bid
	blk.pages = pages
	blk.eager = eager
	blk.b = nil
	blk.faulted.Reset()
	blk.toMigrate.Reset()
	blk.cost = d.cfg.Costs.PerVABlock
	blk.done = false
	bc.rec.TBlockMgmt += d.cfg.Costs.PerVABlock
	// The per-step cost deltas feed the stage observers (the steps
	// only add to blk.cost, so before/after differencing is exact).
	// stepCosts is driver-held scratch sliced to the architecture's step
	// count; steps skipped after blk.done keep a zero delta.
	steps := d.stepCosts[:len(d.arch.blockSteps)]
	for i := range steps {
		steps[i] = 0
	}
	for i, st := range d.arch.blockSteps {
		before := blk.cost
		if err := st.run(d, bc, blk); err != nil {
			return blk.cost, err
		}
		steps[i] = blk.cost - before
		if blk.done {
			break
		}
	}
	for _, o := range d.stageObs {
		o.BlockServiced(bid, len(pages), eager, steps, blk.cost)
	}
	return blk.cost, nil
}

// fail aborts the run with err as its terminal error, releasing the
// shared service slot so diagnostics from other drivers stay coherent.
func (d *Driver) fail(err error) {
	d.inBatch = false
	if d.arbiter != nil {
		d.arbiter.Release()
	}
	d.eng.Fail(err)
}
