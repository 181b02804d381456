package uvm

// prefetchplan.go — migration-set planning: the prefetch-plan block step
// (which pages of the block migrate beyond the faulted ones, §5.2), the
// registered PrefetchPlanner implementations, and the cross-block stage
// (eager whole-block migration beyond the faulting VABlock, §6).
//
// Profiler attribution: planning itself is free in the cost model, so
// the prefetch-plan slot of the step decomposition is structurally zero
// today — the profiler keeps the slot so a future planner with a
// modeled cost shows up without a seam change. Blocks the cross-block
// stage migrates report BlockServiced with eager=true and zero faulted
// pages.

import "guvm/internal/mem"

// prefetchPolicy is a prefetch registry entry: the in-block planner, and
// how many whole blocks past each fully resident faulting block the
// cross-block stage migrates (0 for none).
type prefetchPolicy struct {
	planner PrefetchPlanner
	scope   int
}

// crossBlockScope is the "cross-block" policy's scope: two blocks ahead.
const crossBlockScope = 2

// prefetchPlanStep builds the block's migration set: the deduplicated
// faulted pages plus whatever the configured planner adds. An eager
// cross-block migration plans the whole block unconditionally.
type prefetchPlanStep struct{}

func (prefetchPlanStep) name() string { return "prefetch-plan" }

func (prefetchPlanStep) run(d *Driver, bc *batchCtx, blk *blockCtx) error {
	if blk.eager {
		blk.toMigrate.SetAll()
		return nil
	}
	for _, p := range blk.pages {
		blk.faulted.Set(p.IndexInBlock())
	}
	blk.toMigrate.Union(&blk.faulted)
	extra := d.prefetch.planner.PlanBlock(d, &blk.b.resident, &blk.faulted)
	nExtra := extra.Count()
	bc.rec.PrefetchedPages += int32(nExtra)
	d.stats.PrefetchedPages += nExtra
	blk.toMigrate.Union(&extra)
	return nil
}

// treePlanner is the shipped density ("tree-based") prefetcher: upgrade
// each fault to its 64 KB region, then promote any subtree whose
// occupancy reaches the configured threshold (§5.2).
type treePlanner struct{}

func (treePlanner) PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet {
	return PrefetchPages(resident, faulted, d.cfg.PrefetchThreshold, true)
}

// offPlanner migrates only the deduplicated faulted pages.
type offPlanner struct{}

func (offPlanner) PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet {
	return mem.PageSet{}
}

// crossBlockStage extends prefetching beyond a single VABlock (§6:
// "increasing the prefetching scope"): after the serviced blocks, up to
// the prefetch policy's scope of whole blocks following each
// fully-resident faulting block of the same allocation are migrated
// eagerly through the block pipeline. This trades upfront work (and
// possible evictions — the §5.3 hazard) for eliminating future
// first-touch batches.
type crossBlockStage struct{}

// run walks the faulted blocks, the dedup prefix of the serviced list;
// each block it migrates joins the list, stamped, before it runs, so
// the in-batch test below and eviction see it.
func (crossBlockStage) run(d *Driver, bc *batchCtx) error {
	scope := d.prefetch.scope
	if scope <= 0 {
		return nil
	}
	sc := bc.sc
	for _, bid := range sc.serviced[:bc.rec.VABlocks] {
		b := d.blocks.Lookup(bid)
		if b == nil || !b.resident.Full() {
			continue
		}
		sp, ok := d.spanOf(bid)
		if !ok {
			continue
		}
		for n := 1; n <= scope; n++ {
			next := bid + mem.VABlockID(n)
			if next > sp.last {
				break
			}
			// A block with no state yet is not in the batch: every
			// serviced block got state from blockFor when it ran.
			nb := d.blocks.Lookup(next)
			if nb != nil && (nb.resident.Any() || nb.batch == sc.stamp) {
				break // already (partially) resident or serviced: stop the run
			}
			d.addServiced(next)
			c, err := d.runBlock(next, nil, true, bc)
			if err != nil {
				return err
			}
			sc.blockCosts = append(sc.blockCosts, c)
		}
	}
	return nil
}
