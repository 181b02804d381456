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
// are the unique pages (already ascending, stale-filtered as each run
// starts), the run head is the first arrival whose µTLB classifies the
// later duplicates as type-1/type-2, and VABlock run lengths are the raw
// histogram. A 256-fault batch fires thousands of times per simulated
// second, so the map hashing and the comparator sort this replaces were
// the driver's top profile entries.
type dedupStage struct{}

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

	// One scan of the sorted keys (§4.2). Within each page run the head
	// key carries the smallest arrival index — the first fault, whose
	// µTLB is the reference: a repeat from the same µTLB is a type-1
	// duplicate, from a different µTLB type-2. Each run head is a unique
	// page; a resident one is stale, the rest group by VABlock into
	// contiguous runs of nonStale, so the serviced blocks come out
	// ascending. VABlock runs of the keys are the raw per-block fault
	// histogram (Table 3), duplicates included.
	var curPage mem.PageID
	var curBlk mem.VABlockID
	var firstUTLB int
	var unique int32
	for ki, k := range keys {
		p := pageOf(k)
		if b := p.VABlock(); ki == 0 || b != curBlk {
			curBlk = b
			sc.blockFaults = append(sc.blockFaults, 0)
		}
		sc.blockFaults[len(sc.blockFaults)-1]++
		if ki > 0 && p == curPage {
			if bc.faults[idxOf(k)].UTLB == firstUTLB {
				rec.Type1Dups++
			} else {
				rec.Type2Dups++
			}
			continue
		}
		curPage = p
		firstUTLB = bc.faults[idxOf(k)].UTLB
		unique++
		if d.IsResidentOnGPU(p) {
			rec.StalePages++
			d.stats.StaleFaults++
			continue
		}
		if s := sc.serviced; len(s) == 0 || s[len(s)-1] != curBlk {
			d.addServiced(curBlk)
		}
		sc.nonStale = append(sc.nonStale, p)
	}
	rec.TDedup = sim.Time(n) * d.cfg.Costs.DedupPerFault
	rec.UniquePages = unique
	rec.VABlocks = int32(len(sc.serviced))

	bc.total += rec.TSetup + bc.tFetch + rec.TDedup
	return nil
}
