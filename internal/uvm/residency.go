package uvm

// residency.go — the residency block step (backing-chunk allocation with
// eviction under pressure, first-touch DMA mapping, CPU unmapping) and
// the registered eviction strategies (§5.1, §5.4, §4.4).
//
// Profiler attribution: everything this step adds to blk.cost — chunk
// allocation, evictions it forces (evictOne's writeback), DMA map and
// CPU unmap — lands in the residency slot of the per-block step
// decomposition; the batch-level stage table still splits the same cost
// into dma_map/unmap/evict via the record's phase timers.

import (
	"fmt"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// residencyStep establishes the VABlock's device-side footing: the block
// record, a backing 2 MB chunk (evicting victims while device memory is
// full), the compulsory first-touch DMA mapping (§5.2, dominated by
// radix-tree work in hostos), and unmap_mapping_range for pages the CPU
// still maps (§4.4).
type residencyStep struct{}

func (residencyStep) name() string { return "residency" }

func (residencyStep) run(d *Driver, bc *batchCtx, blk *blockCtx) error {
	b := d.blockFor(blk.bid)
	blk.b = b

	// Backing chunk: allocate, evicting if device memory is full.
	if !b.hasChunk {
		id, ok := d.pmm.Alloc(blk.bid)
		for !ok {
			c, err := d.evictOne(blk.bid, bc)
			blk.cost += c
			if err != nil {
				return err
			}
			id, ok = d.pmm.Alloc(blk.bid)
		}
		b.hasChunk = true
		b.chunk = id
		b.allocSeq = d.nextSeq
		d.nextSeq++
		d.allocated = append(d.allocated, b)
	}
	b.lastTouch = d.batchCount

	// Compulsory first-touch DMA mapping setup for the whole block.
	if !b.dmaMapped {
		t := d.vm.MapDMA(blk.bid)
		blk.cost += t
		bc.rec.TDMAMap += t
		bc.rec.NewDMABlocks++
		b.dmaMapped = true
	}

	// CPU unmapping: the GPU touched a block partially resident on the
	// host.
	if d.vm.CPUMappedPages(blk.bid) > 0 {
		t, n := d.vm.UnmapMappingRange(blk.bid)
		blk.cost += t
		bc.rec.TUnmap += t
		bc.rec.UnmapPages += n
	}
	return nil
}

// blockFor returns bid's state, creating it on first touch. A block
// created while the current batch services it gets the batch's stamp.
func (d *Driver) blockFor(bid mem.VABlockID) *blockState {
	b := d.blocks.Lookup(bid)
	if b == nil {
		b = &blockState{id: bid}
		if d.scratch.inBatch(bid) {
			b.batch = d.scratch.stamp
		}
		d.blocks.Set(bid, b)
	}
	return b
}

// counterGateStep is the access-counter architecture's delayed-migration
// gate, run before the standard steps. A faulting block below the access
// threshold is serviced by remote mapping: the pages stay in host memory
// (populated and DMA-mapped, GPU PTEs pointing across the link) and the
// remaining steps are skipped. Once the device's access counter for the
// block crosses the threshold the gate promotes it: the remote-mapped
// pages join the migration set and the block falls through to the
// standard residency/transfer pipeline, which makes it GPU-resident.
type counterGateStep struct{}

func (counterGateStep) name() string { return "counter-gate" }

func (counterGateStep) run(d *Driver, bc *batchCtx, blk *blockCtx) error {
	if blk.eager {
		return nil // cross-block migrations bypass the gate
	}
	b := d.blockFor(blk.bid)
	blk.b = b

	if d.dev.Counters.Read(blk.bid) >= uint64(d.cfg.AccessCounterThreshold) {
		// Promote: the remote-mapped pages join this batch's migration
		// set and the standard steps migrate them alongside the faults.
		if b.remoteMapped.Any() {
			blk.toMigrate.Union(&b.remoteMapped)
			d.stats.CounterPromotions++
		}
		d.dev.Counters.Clear(blk.bid)
		return nil
	}

	// Below threshold: service the faults by remote mapping. First-touch
	// DMA setup and population still happen (the data must exist in host
	// memory for the GPU to reach it), then fresh GPU PTEs are installed
	// pointing at host memory.
	for _, p := range blk.pages {
		blk.faulted.Set(p.IndexInBlock())
	}
	if !b.dmaMapped {
		t := d.vm.MapDMA(blk.bid)
		blk.cost += t
		bc.rec.TDMAMap += t
		bc.rec.NewDMABlocks++
		b.dmaMapped = true
	}
	var newPages mem.PageSet
	newPages.Union(&blk.faulted)
	newPages.Subtract(&b.populated)
	if n := newPages.Count(); n > 0 {
		t, err := d.populateWithRetry(blk.bid, n, bc)
		blk.cost += t
		if err != nil {
			return err
		}
	}
	var fresh mem.PageSet
	fresh.Union(&blk.faulted)
	fresh.Subtract(&b.remoteMapped)
	if n := fresh.Count(); n > 0 {
		pt := sim.Time(n) * d.cfg.Costs.PageTablePerPage
		blk.cost += pt
		bc.rec.TPageTable += pt
		d.stats.RemoteMappedPages += n
	}
	b.remoteMapped.Union(&blk.faulted)
	b.populated.Union(&blk.faulted)
	blk.done = true
	return nil
}

// hasEvictionCandidate reports whether any allocated block other than
// current could be evicted.
func (d *Driver) hasEvictionCandidate(current mem.VABlockID) bool {
	for _, b := range d.allocated {
		if b.id != current {
			return true
		}
	}
	return false
}

// evictOne evicts one block chosen by the configured strategy and
// returns the eviction cost. Blocks being serviced in the current batch
// are only victims of last resort (evicting them would immediately
// re-fault), and the block currently allocating is never evicted; if
// that leaves no victim, the error wraps ErrCapacityExhausted.
func (d *Driver) evictOne(current mem.VABlockID, bc *batchCtx) (sim.Time, error) {
	sc := bc.sc
	pick := func(avoidBatch bool) (*blockState, int) {
		sc.candidates = sc.candidates[:0]
		for i, b := range d.allocated {
			if b.id == current {
				continue
			}
			if avoidBatch && b.batch == sc.stamp {
				continue
			}
			sc.candidates = append(sc.candidates, i)
		}
		if len(sc.candidates) == 0 {
			return nil, -1
		}
		vi := d.evict.Pick(d, sc.candidates)
		return d.allocated[vi], vi
	}
	victim, vi := pick(true)
	if victim == nil {
		victim, vi = pick(false)
	}
	if victim == nil {
		return 0, fmt.Errorf("uvm: cannot evict: capacity %d blocks all pinned: %w",
			d.cfg.CapacityBlocks(), ErrCapacityExhausted)
	}

	cost := d.cfg.Costs.EvictBase
	if n := victim.resident.Count(); n > 0 {
		// Write back resident pages to the host. The data lands in
		// host memory but is NOT remapped to the CPU: a later GPU
		// re-fetch pays no unmap cost (Figure 13's cost levels). Under
		// the hardware fault domain the writeback retries flap drops
		// like any other transfer.
		spans := victim.resident.Spans(sc.evictSpans[:0], victim.id)
		sc.evictSpans = spans
		t, err := d.carryOverLink(victim.id, spans, false)
		cost += t
		if err != nil {
			return cost, err
		}
		cost += sim.Time(n) * d.cfg.Costs.EvictPerPage
		bc.rec.EvictedBytes += uint64(n) * mem.PageSize
	}
	victim.resident.Reset()
	victim.hasChunk = false
	d.dev.Counters.Clear(victim.id)
	d.pmm.Release(victim.chunk)
	victim.evictions++
	d.allocated = append(d.allocated[:vi], d.allocated[vi+1:]...)

	bc.rec.Evictions++
	bc.rec.EvictedBlocks = append(bc.rec.EvictedBlocks, victim.id)
	bc.rec.TEvict += cost
	d.stats.Evictions++
	return cost, nil
}

// lruStrategy evicts the block with the oldest last-migration batch,
// breaking ties by allocation order — the shipped driver's policy, which
// §5.4 notes "essentially evicts the data that was migrated into GPU
// memory the earliest".
type lruStrategy struct{}

func (lruStrategy) Pick(d *Driver, candidates []int) int {
	vi := candidates[0]
	for _, i := range candidates[1:] {
		b, v := d.allocated[i], d.allocated[vi]
		if b.lastTouch < v.lastTouch ||
			(b.lastTouch == v.lastTouch && b.allocSeq < v.allocSeq) {
			vi = i
		}
	}
	return vi
}

// fifoStrategy evicts in chunk allocation order.
type fifoStrategy struct{}

func (fifoStrategy) Pick(d *Driver, candidates []int) int {
	vi := candidates[0]
	for _, i := range candidates[1:] {
		if d.allocated[i].allocSeq < d.allocated[vi].allocSeq {
			vi = i
		}
	}
	return vi
}

// randomStrategy evicts a uniformly random candidate from the driver's
// seeded eviction RNG (deterministic across runs).
type randomStrategy struct{}

func (randomStrategy) Pick(d *Driver, candidates []int) int {
	return candidates[d.evictRNG.Intn(len(candidates))]
}

// lfuStrategy evicts the block with the fewest GPU access-counter hits
// (ties by allocation order) — the page-hit information §5.4 says the
// shipped LRU lacks. Attach enables the device counters for it.
type lfuStrategy struct{}

func (lfuStrategy) Pick(d *Driver, candidates []int) int {
	read := func(i int) uint64 { return d.dev.Counters.Read(d.allocated[i].id) }
	vi := candidates[0]
	for _, i := range candidates[1:] {
		if read(i) < read(vi) ||
			(read(i) == read(vi) && d.allocated[i].allocSeq < d.allocated[vi].allocSeq) {
			vi = i
		}
	}
	return vi
}
