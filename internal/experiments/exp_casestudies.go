package experiments

import (
	"guvm"
	"guvm/internal/mem"
	"guvm/internal/report"
	"guvm/internal/workloads"
)

// caseStudy runs one §5.4 case study (prefetching on, modest
// oversubscription) and renders its three panels: batch profile with
// prefetching, batch profile with evictions, and the fine-grain fault
// behaviour (page ranges allocated and evicted per batch).
func caseStudy(id, title string, capacity uint64, w workloads.Workload, paperLRUNote string) (*Artifact, error) {
	a := &Artifact{ID: id, Title: title}
	cfg := baseConfig()
	cfg.Driver.GPUMemBytes = capacity
	cfg.KeepSpans = true
	res, err := run(cfg, w)
	if err != nil {
		return nil, err
	}

	// Panels (a)+(b): batch profile with prefetch and eviction counts.
	profile := &report.Series{
		Title:   id + "-profile",
		Columns: []string{"batch_id", "batch_us", "migrated_KB", "prefetched_pages", "evictions"},
	}
	for _, b := range res.Batches {
		profile.AddRow(float64(b.ID), us(b.Duration()), float64(b.BytesMigrated)/1024,
			float64(b.PrefetchedPages), float64(b.Evictions))
	}
	a.Series = append(a.Series, profile)

	// Panel (c): fault behaviour — serviced page ranges and evicted
	// block ranges per batch.
	behaviour := &report.Series{
		Title:   id + "-faults",
		Columns: []string{"batch_id", "kind(0=alloc,1=evict)", "first_page", "last_page"},
	}
	next := 0 // cursor into the span log, which is in batch order
	for _, b := range res.Batches {
		for ; next < len(res.Spans) && res.SpanBatch[next] == int(b.ID); next++ {
			sp := res.Spans[next]
			behaviour.AddRow(float64(b.ID), 0, float64(sp.First), float64(sp.End()-1))
		}
		for _, eb := range b.EvictedBlocks {
			behaviour.AddRow(float64(b.ID), 1, float64(eb.FirstPage()),
				float64(eb.FirstPage())+float64(mem.PagesPerVABlock-1))
		}
	}
	a.Series = append(a.Series, behaviour)

	addCaseStudyNotes(a, res, paperLRUNote)
	return a, nil
}

// addCaseStudyNotes verifies the §5.4 claims on a case-study result.
func addCaseStudyNotes(a *Artifact, res *guvm.Result, paperLRUNote string) {
	// Claim: eviction creates new prefetching opportunities — batches
	// after the first eviction still prefetch.
	firstEvict := -1
	prefetchAfter := 0
	for _, b := range res.Batches {
		id := int(b.ID)
		if firstEvict < 0 && b.Evictions > 0 {
			firstEvict = id
		}
		if firstEvict >= 0 && id > firstEvict && b.PrefetchedPages > 0 {
			prefetchAfter++
		}
	}
	a.Notef("paper: eviction re-opens prefetch opportunities (freshly paged-in VABlocks re-trigger prefetching); measured %d prefetching batches after the first eviction (batch %d)",
		prefetchAfter, firstEvict)

	// Claim: LRU eviction targets the earliest-allocated pages first.
	// Measure: among the first quarter of evictions, what fraction hit
	// the earliest-allocated half of the blocks ever evicted?
	type evictEvent struct{ block mem.VABlockID }
	var evicts []evictEvent
	firstAlloc := map[mem.VABlockID]int{}
	for i, sp := range res.Spans {
		blk := sp.First.VABlock()
		if _, ok := firstAlloc[blk]; !ok {
			firstAlloc[blk] = res.SpanBatch[i]
		}
	}
	for _, b := range res.Batches {
		for _, eb := range b.EvictedBlocks {
			evicts = append(evicts, evictEvent{eb})
		}
	}
	if len(evicts) > 4 {
		quarter := len(evicts) / 4
		early := 0
		// Median first-allocation batch over evicted blocks.
		var allocBatches []int
		for _, e := range evicts {
			allocBatches = append(allocBatches, firstAlloc[e.block])
		}
		median := medianInt(allocBatches)
		for _, e := range evicts[:quarter] {
			if firstAlloc[e.block] <= median {
				early++
			}
		}
		a.Notef("%s; measured %d/%d of the first quarter of evictions target earliest-allocated blocks",
			paperLRUNote, early, quarter)
	}
	a.Notef("run summary: %d batches, %d evictions, %d prefetched pages, kernel %.1fms",
		len(res.Batches), res.DriverStats.Evictions, res.DriverStats.PrefetchedPages, ms(res.KernelTime))
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ { // insertion sort: inputs are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// Fig16 reproduces Figure 16: Gauss-Seidel at ~16% oversubscription with
// prefetching.
func Fig16() (*Artifact, error) {
	// Grid 3072^2 x 4B = 36 MB on a 32 MB GPU: ~116% (paper: ~16%).
	return caseStudy("fig16", "Gauss-Seidel case study (~16% oversubscription)",
		32<<20, workloads.NewGaussSeidel(3072, 3),
		"paper: evictions proceed in earliest-allocated order (LRU with no hit information)")
}

// Fig17 reproduces Figure 17: HPGMG at ~25% oversubscription with
// prefetching.
func Fig17() (*Artifact, error) {
	// Levels sum ~50 MB on a 40 MB GPU: ~125% (paper: ~25%).
	return caseStudy("fig17", "HPGMG case study (~25% oversubscription)",
		40<<20, workloads.NewHPGMG(40<<20, 1),
		"paper: the first large eviction wave targets the first allocated pages (green band at plot start)")
}
