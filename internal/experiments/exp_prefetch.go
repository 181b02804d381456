package experiments

import (
	"guvm/internal/report"
	"guvm/internal/stats"
	"guvm/internal/trace"
	"guvm/internal/workloads"
)

// Fig14 reproduces Figure 14: sgemm with prefetching enabled. Claims: the
// batch count collapses (93% fewer than the Figure-7 run), batch sizes
// inflate with prefetched regions, and the high-cost outliers are batches
// paying compulsory first-touch DMA-mapping setup — up to ~64% of batch
// time, driven by radix-tree work — which prefetching cannot eliminate.
func Fig14() (*Artifact, error) {
	a := &Artifact{ID: "fig14", Title: "sgemm with prefetching: profile and DMA outliers"}
	res, err := run(baseConfig(), workloads.NewSGEMM(2048))
	if err != nil {
		return nil, err
	}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	noPF := runs["sgemm"]

	s := &report.Series{
		Title:   "fig14",
		Columns: []string{"batch_id", "batch_us", "migrated_KB", "dma_fraction", "new_dma_blocks"},
	}
	var dmaFracs []float64
	for _, b := range res.Batches {
		s.AddRow(float64(b.ID), us(b.Duration()), float64(b.BytesMigrated)/1024,
			b.Share(trace.StageDMAMap), float64(b.NewDMABlocks))
		dmaFracs = append(dmaFracs, b.Share(trace.StageDMAMap))
	}
	a.Series = append(a.Series, s)

	reduction := 1 - float64(len(res.Batches))/float64(len(noPF.Batches))
	maxDMA := stats.Summarize(dmaFracs).Max

	t := &report.Table{
		Title:   "Figure 14: prefetching effects",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("batches_noPF", len(noPF.Batches))
	t.AddRow("batches_PF", len(res.Batches))
	t.AddRow("batch_reduction_pct", reduction*100)
	t.AddRow("max_DMA_fraction_pct", maxDMA*100)
	t.AddRow("prefetched_pages", res.DriverStats.PrefetchedPages)
	a.Tables = append(a.Tables, t)

	a.Notef("paper: prefetching cuts sgemm batches by ~93%%; measured %.0f%%", reduction*100)
	a.Notef("paper: outlier batches spend up to ~64%% of time in VABlock DMA state init; measured max %.0f%%", maxDMA*100)
	return a, nil
}

// Fig15 reproduces Figure 15: dgemm with eviction and prefetching
// combined, shown against migration size and as a time series. Claims:
// (1) prefetching stays active and drives large batches; (2) evictions
// cluster later in execution with batch sizes echoing the non-prefetching
// range; (3) new-VABlock batches pay CPU unmapping, diminishing late in
// the run; (4) DMA-mapping setup recurs intermittently throughout.
func Fig15() (*Artifact, error) {
	a := &Artifact{ID: "fig15", Title: "dgemm with eviction + prefetching"}
	cfg := baseConfig()
	cfg.Driver.GPUMemBytes = 84 << 20 // dgemm 2048: 96 MB working set -> ~116%
	res, err := run(cfg, workloads.NewDGEMM(2048))
	if err != nil {
		return nil, err
	}

	s := &report.Series{
		Title: "fig15",
		Columns: []string{"batch_id", "batch_us", "migrated_KB", "prefetched_pages",
			"evictions", "unmap_us", "dma_us"},
	}
	var (
		firstEvict, lastUnmap   = -1, -1
		evictions, dmaBatches   int
		prefetchedAfterEviction int
	)
	for _, b := range res.Batches {
		s.AddRow(float64(b.ID), us(b.Duration()), float64(b.BytesMigrated)/1024,
			float64(b.PrefetchedPages), float64(b.Evictions), us(b.TUnmap), us(b.TDMAMap))
		if b.Evictions > 0 {
			evictions += int(b.Evictions)
			if firstEvict < 0 {
				firstEvict = int(b.ID)
			}
			if b.PrefetchedPages > 0 {
				prefetchedAfterEviction++
			}
		}
		if b.UnmapPages > 0 {
			lastUnmap = int(b.ID)
		}
		if b.NewDMABlocks > 0 {
			dmaBatches++
		}
	}
	a.Series = append(a.Series, s)

	t := &report.Table{
		Title:   "Figure 15: combined-feature summary",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("batches", len(res.Batches))
	t.AddRow("total_evictions", evictions)
	t.AddRow("first_eviction_batch", firstEvict)
	t.AddRow("last_unmap_batch", lastUnmap)
	t.AddRow("batches_with_DMA_setup", dmaBatches)
	t.AddRow("prefetched_pages", res.DriverStats.PrefetchedPages)
	a.Tables = append(a.Tables, t)

	a.Notef("paper: prefetching remains active under eviction; measured %d prefetched pages with %d evictions",
		res.DriverStats.PrefetchedPages, evictions)
	a.Notef("paper: evictions occur later in execution; measured first eviction at batch %d of %d", firstEvict, len(res.Batches))
	a.Notef("paper: unmapping diminishes after every VABlock's first GPU touch; measured last unmap at batch %d of %d", lastUnmap, len(res.Batches))
	a.Notef("paper: DMA setup recurs intermittently; measured %d batches paying first-touch DMA setup", dmaBatches)
	return a, nil
}
