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
	extra := d.planner.PlanBlock(d, &blk.b.resident, &blk.faulted)
	nExtra := extra.Count()
	bc.rec.PrefetchedPages += nExtra
	d.stats.PrefetchedPages += nExtra
	blk.toMigrate.Union(&extra)
	return nil
}

// treePlanner is the shipped density ("tree-based") prefetcher: promote
// any subtree whose occupancy reaches the configured threshold (§5.2).
type treePlanner struct{}

func (treePlanner) PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet {
	return PrefetchPages(resident, faulted, d.cfg.PrefetchThreshold, d.cfg.Upgrade64K)
}

func (treePlanner) CrossBlockScope(d *Driver) int { return d.cfg.CrossBlockPrefetch }

// offPlanner migrates only the deduplicated faulted pages.
//
// Both planners read the cross-block scope from the config rather than
// hard-coding it, so legacy knob combinations (e.g. PrefetchEnabled off
// with CrossBlockPrefetch set) keep their exact historical behaviour.
type offPlanner struct{}

func (offPlanner) PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet {
	return mem.PageSet{}
}

func (offPlanner) CrossBlockScope(d *Driver) int { return d.cfg.CrossBlockPrefetch }

// crossBlockStage extends prefetching beyond a single VABlock (§6:
// "increasing the prefetching scope"): after the serviced blocks, up to
// scope whole blocks following each fully-resident faulting block of the
// same allocation are migrated eagerly through the block pipeline. This
// trades upfront work (and possible evictions — the §5.3 hazard) for
// eliminating future first-touch batches.
type crossBlockStage struct{}

func (crossBlockStage) name() string { return "cross-block" }

func (crossBlockStage) run(d *Driver, bc *batchCtx) error {
	scope := d.planner.CrossBlockScope(d)
	if scope <= 0 {
		return nil
	}
	sc := bc.sc
	for _, bid := range sc.blockOrder {
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
			nb := d.blocks.Lookup(next)
			if nb != nil && nb.resident.Any() {
				break // already (partially) resident: stop the run
			}
			if sc.inBatch(next) {
				break
			}
			c, err := d.runBlock(next, nil, true, bc)
			if err != nil {
				return err
			}
			sc.blockCosts = append(sc.blockCosts, c)
			sc.inBatchExtra = append(sc.inBatchExtra, next)
			d.markInBatch(next)
		}
	}
	return nil
}
