package uvm

// dedup.go — duplicate classification and VABlock grouping, the first
// synchronous stage of the batch pipeline (§4.2).
//
// Profiler attribution: the whole stage is one serial charge
// (rec.TDedup); the lifecycle profiler anchors its "deduped" mark at
// pipeline entry + TDedup and treats stale-filtered faults as serviced
// at that instant (no block ever runs for them).

import (
	"slices"
	"sort"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// dedupStage classifies duplicate faults by µTLB of origin, filters
// stale (already-resident) pages, groups the remainder by VABlock in
// ascending order, and builds the raw per-block fault histogram
// (Table 3). It also charges the batch's fixed front-end costs into the
// batch total: setup, fetch, and dedup.
//
// The stage is a struct-of-arrays sort-scan rather than the obvious
// hash-map pass: each fault is packed into a single integer key
// (page<<16 | arrival index), the keys are sorted once, and every
// product of the old map pass falls out of one linear scan — page runs
// are the unique pages (already ascending), the run head is the first
// arrival whose µTLB classifies the later duplicates as type-1/type-2,
// and VABlock run lengths are the raw histogram. A 256-fault batch
// fires thousands of times per simulated second, so the map hashing and
// the comparator sort this replaces were the driver's top profile
// entries.
type dedupStage struct{}

func (dedupStage) name() string { return "dedup" }

// dedupPackBits is the arrival-index width inside a packed key. The
// packed fast path needs every index under 1<<dedupPackBits and every
// page below 1<<(64-dedupPackBits-1); a batch holds at most
// MaxBatchSize faults and pages live in a 48-bit VA, so the comparator
// fallback is for adversarial configs only.
const dedupPackBits = 16

func (dedupStage) run(d *Driver, bc *batchCtx) error {
	sc := bc.sc
	rec := &bc.rec

	n := len(bc.faults)
	keys := sc.keys[:0]
	packed := n <= 1<<dedupPackBits
	if packed {
		for i, f := range bc.faults {
			if uint64(f.Page) >= 1<<(63-dedupPackBits) {
				packed = false
				break
			}
			keys = append(keys, uint64(f.Page)<<dedupPackBits|uint64(i))
		}
	}
	if packed {
		slices.Sort(keys)
	} else {
		keys = keys[:0]
		for i := range bc.faults {
			keys = append(keys, uint64(i))
		}
		sort.Slice(keys, func(a, b int) bool {
			fa, fb := &bc.faults[keys[a]], &bc.faults[keys[b]]
			if fa.Page != fb.Page {
				return fa.Page < fb.Page
			}
			return keys[a] < keys[b]
		})
	}
	sc.keys = keys
	pageOf := func(k uint64) mem.PageID {
		if packed {
			return mem.PageID(k >> dedupPackBits)
		}
		return bc.faults[k].Page
	}
	idxOf := func(k uint64) int {
		if packed {
			return int(k & (1<<dedupPackBits - 1))
		}
		return int(k)
	}

	// Duplicate classification (§4.2): within each page run the head key
	// carries the smallest arrival index — the first fault, whose µTLB
	// is the reference. A repeat from the same µTLB is a type-1
	// duplicate, from a different µTLB type-2.
	var curPage mem.PageID
	var firstUTLB int
	for ki, k := range keys {
		p := pageOf(k)
		if ki == 0 || p != curPage {
			curPage = p
			firstUTLB = bc.faults[idxOf(k)].UTLB
			sc.uniq = append(sc.uniq, p)
			continue
		}
		if bc.faults[idxOf(k)].UTLB == firstUTLB {
			rec.Type1Dups++
		} else {
			rec.Type2Dups++
		}
	}
	rec.TDedup = sim.Time(n) * d.cfg.Costs.DedupPerFault
	rec.UniquePages = int32(len(sc.uniq))

	// Group unique, non-stale pages by VABlock: uniq is already sorted
	// ascending (it mirrors the key order), so each VABlock's group is a
	// contiguous run of nonStale and blockOrder stays ascending.
	for _, p := range sc.uniq {
		if d.IsResidentOnGPU(p) {
			rec.StalePages++
			d.stats.StaleFaults++
			continue
		}
		if b := p.VABlock(); len(sc.blockOrder) == 0 || sc.blockOrder[len(sc.blockOrder)-1] != b {
			sc.blockOrder = append(sc.blockOrder, b)
			d.markInBatch(b)
		}
		sc.nonStale = append(sc.nonStale, p)
	}
	rec.VABlocks = int32(len(sc.blockOrder))

	// Raw fault distribution over VABlocks (Table 3): counts include
	// duplicates, in ascending block order — VABlock runs are contiguous
	// in the sorted keys, so the histogram is their run lengths.
	var curBlk mem.VABlockID
	for ki, k := range keys {
		b := pageOf(k).VABlock()
		if ki == 0 || b != curBlk {
			curBlk = b
			sc.blockFaults = append(sc.blockFaults, 0)
		}
		sc.blockFaults[len(sc.blockFaults)-1]++
	}

	bc.total += rec.TSetup + bc.tFetch + rec.TDedup
	return nil
}

// markInBatch stamps bid's state, if it has one yet, as serviced by the
// current batch. Dedup and the cross-block stage call it as they add a
// block to inBatch's set; blockFor stamps a block created later.
func (d *Driver) markInBatch(bid mem.VABlockID) {
	if b := d.blocks.Lookup(bid); b != nil {
		b.batch = d.scratch.stamp
	}
}

// inBatch reports whether bid is being serviced by the current batch.
// Serviced blocks live in two places: blockOrder (sorted ascending, from
// dedup) and inBatchExtra (the handful the cross-block stage adds
// afterwards). Eviction reads the same answer from blockState.batch;
// this search serves the cross-block planner and blockFor, which probe
// blocks that may have no state yet.
func (sc *batchScratch) inBatch(bid mem.VABlockID) bool {
	if _, ok := slices.BinarySearch(sc.blockOrder, bid); ok {
		return true
	}
	for _, b := range sc.inBatchExtra {
		if b == bid {
			return true
		}
	}
	return false
}
