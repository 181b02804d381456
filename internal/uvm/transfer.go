package uvm

// transfer.go — the populate and transfer block steps: first-touch page
// population (§5.1), span coalescing, the link transfer, and GPU
// page-table updates, including the injected-failure retry paths.
//
// Profiler attribution: the populate step's cost (including injected
// host-allocation recovery) fills the populate slot of the per-block
// step decomposition; the transfer step's — link transfer, retries,
// page-table update — fills the transfer slot.

import (
	"errors"
	"fmt"

	"guvm/internal/faultinject"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// populateStep zero-fills the pages of the migration set becoming
// resident for the first time (§5.1), degrading gracefully on injected
// host allocation failures.
type populateStep struct{}

func (populateStep) name() string { return "populate" }

func (populateStep) run(d *Driver, bc *batchCtx, blk *blockCtx) error {
	var newPages mem.PageSet
	newPages.Union(&blk.toMigrate)
	newPages.Subtract(&blk.b.populated)
	if n := newPages.Count(); n > 0 {
		t, err := d.populateWithRetry(blk.bid, n, bc)
		blk.cost += t
		if err != nil {
			return err
		}
	}
	return nil
}

// transferStep takes the migration set's spans, moves them over the link
// (retrying injected transient failures), charges the GPU page-table
// updates, and marks residency. The span buffer is batch scratch: nothing
// below retains it (the record copies span values), and no eviction can
// fire past this point in the block.
type transferStep struct{}

func (transferStep) name() string { return "transfer" }

func (transferStep) run(d *Driver, bc *batchCtx, blk *blockCtx) error {
	sc := bc.sc
	rec := &bc.rec
	spans := blk.toMigrate.Spans(sc.spans[:0], blk.bid)
	sc.spans = spans
	migrating := blk.toMigrate.Count()
	t, err := d.transferWithRetry(blk.bid, spans, rec)
	blk.cost += t
	if err != nil {
		return err
	}
	rec.TTransfer += t
	rec.PagesMigrated += int32(migrating)
	rec.BytesMigrated += uint64(migrating) * mem.PageSize
	d.stats.MigratedPages += migrating
	// The collector drops the spans unless it keeps them; only then are
	// they worth staging for the span log.
	if d.Collector.KeepSpans {
		sc.keptSpans = append(sc.keptSpans, spans...)
	}
	if blk.eager {
		// Cross-block migrations account their pages as prefetched (the
		// block had no faults of its own).
		rec.PrefetchedPages += mem.PagesPerVABlock
		d.stats.PrefetchedPages += mem.PagesPerVABlock
		d.stats.CrossBlockPages += mem.PagesPerVABlock
	}

	// GPU page-table updates.
	pt := sim.Time(migrating) * d.cfg.Costs.PageTablePerPage
	blk.cost += pt
	rec.TPageTable += pt

	// Mark residency. Migrated pages stop being remote-mapped (the
	// access-counter promotion path); the subtract is a no-op elsewhere.
	blk.b.resident.Union(&blk.toMigrate)
	blk.b.populated.Union(&blk.toMigrate)
	blk.b.remoteMapped.Subtract(&blk.toMigrate)
	return nil
}

// populateWithRetry asks the host OS to populate n pages of block bid,
// degrading gracefully on injected allocation failures: each failure
// shrinks the effective batch size and sheds one device chunk (relieving
// the memory pressure the failure models) before retrying, up to the
// injector's budget. The accumulated cost includes the forced evictions.
func (d *Driver) populateWithRetry(bid mem.VABlockID, n int, bc *batchCtx) (sim.Time, error) {
	var cost, popCost sim.Time
	budget := d.inj.HostAllocRetryBudget()
	for attempt := 0; ; attempt++ {
		t, err := d.vm.Populate(n)
		cost += t
		popCost += t
		if err == nil {
			if attempt > 0 {
				d.inj.NoteRecovered(faultinject.HostAlloc)
			}
			// Forced-eviction cost is already in rec.TEvict; only the
			// population time lands in TPopulate.
			bc.rec.TPopulate += popCost
			return cost, nil
		}
		d.stats.HostAllocFailures++
		bc.rec.InjHostAllocFails++
		if attempt >= budget {
			d.inj.NoteUnrecovered(faultinject.HostAlloc)
			return cost, fmt.Errorf("uvm: populating %d pages of block %d (attempt %d): %w",
				n, bid, attempt+1, err)
		}
		d.inj.NoteRetried(faultinject.HostAlloc)
		d.shrinkBatch()
		if d.hasEvictionCandidate(bid) {
			c, eerr := d.evictOne(bid, bc)
			cost += c
			if eerr != nil {
				return cost, eerr
			}
		}
	}
}

// shrinkBatch halves the effective batch size down to the adaptive floor,
// the driver's batch-pressure response to host allocation failure. Under
// an adaptive batch-sizing policy, later duplicate-light batches grow it
// back.
func (d *Driver) shrinkBatch() {
	floor := d.cfg.AdaptiveMin
	if floor < 1 {
		floor = 1
	}
	if d.effBatch <= floor {
		return
	}
	d.effBatch /= 2
	if d.effBatch < floor {
		d.effBatch = floor
	}
	d.stats.BatchShrinks++
}

// transferWithRetry migrates spans of block bid over the link. Each
// injected transient failure re-pays the full transfer cost (the link
// carried the bytes before failing) plus an exponential virtual-time
// backoff; exhausting the retry budget is fatal. Only the final
// successful attempt counts toward the batch's migrated bytes.
func (d *Driver) transferWithRetry(bid mem.VABlockID, spans []mem.Span, rec *trace.BatchRecord) (sim.Time, error) {
	failures, fatal := d.inj.MigrateFailures()
	var cost sim.Time
	for i := 0; i < failures; i++ {
		cost += d.link.TransferSpans(spans, true)
		cost += d.inj.MigrateBackoffFor(i)
		for _, sp := range spans {
			d.stats.InjMigRetryBytes += sp.Bytes()
		}
		d.stats.MigRetries++
		rec.InjMigFailures++
	}
	if fatal {
		return cost, fmt.Errorf("uvm: migrating block %d: %d transfer attempts failed: %w",
			bid, failures, ErrMigrationFailed)
	}
	t, err := d.carryOverLink(bid, spans, true)
	return cost + t, err
}

// carryOverLink moves spans over the link, surviving the hardware fault
// domain: a flap-dropped operation is retried with deterministic
// exponential backoff up to the injector's LinkRetryLimit, with the dropped
// attempts' bytes accounted as HW retry traffic (the link charged them,
// but no batch record counts them). Without a hardware regime this is
// exactly one guaranteed TransferSpans — the default hot path pays a
// single flag check.
func (d *Driver) carryOverLink(bid mem.VABlockID, spans []mem.Span, toGPU bool) (sim.Time, error) {
	if !d.hw {
		return d.link.TransferSpans(spans, toGPU), nil
	}
	limit := d.inj.LinkRetryLimit()
	var cost sim.Time
	for attempt := 0; ; attempt++ {
		t, err := d.link.AttemptSpans(spans, toGPU)
		cost += t
		if err == nil {
			if attempt > 0 {
				d.inj.NoteRecovered(faultinject.LinkTransfer)
			}
			return cost, nil
		}
		if errors.Is(err, interconnect.ErrLinkDown) {
			return cost, fmt.Errorf("uvm: transferring block %d over dead link: %w", bid, ErrLinkFailed)
		}
		var bytes uint64
		for _, sp := range spans {
			bytes += sp.Bytes()
		}
		if toGPU {
			d.stats.HWRetryToGPUBytes += bytes
		} else {
			d.stats.HWRetryToHostBytes += bytes
		}
		d.stats.HWLinkRetries++
		if attempt >= limit {
			d.inj.NoteUnrecovered(faultinject.LinkTransfer)
			return cost, fmt.Errorf("uvm: transferring block %d: %d flapping-link attempts failed: %w",
				bid, attempt+1, ErrLinkFailed)
		}
		d.inj.NoteRetried(faultinject.LinkTransfer)
		cost += d.inj.LinkBackoffFor(attempt)
	}
}
