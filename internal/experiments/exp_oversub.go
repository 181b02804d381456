package experiments

import (
	"guvm/internal/report"
	"guvm/internal/stats"
	"guvm/internal/workloads"
)

// Fig12 reproduces Figure 12: sgemm with a problem size exceeding GPU
// memory, prefetching off. Claims: many early batches complete without
// eviction (memory not yet full); once memory fills, batches carrying
// evictions pay markedly more (failed allocation + writeback + restart +
// population).
func Fig12() (*Artifact, error) {
	a := &Artifact{ID: "fig12", Title: "sgemm under oversubscription and eviction"}
	cfg := noPrefetch(baseConfig())
	cfg.Driver.GPUMemBytes = 24 << 20 // sgemm 2048: 48 MB working set -> 200%
	res, err := run(cfg, workloads.NewSGEMM(2048))
	if err != nil {
		return nil, err
	}

	s := &report.Series{
		Title:   "fig12",
		Columns: []string{"batch_id", "batch_us", "migrated_KB", "evictions"},
	}
	var evictless, evicting []float64
	firstEvict := -1
	for _, b := range res.Batches {
		s.AddRow(float64(b.ID), us(b.Duration()), float64(b.BytesMigrated)/1024, float64(b.Evictions))
		if b.Evictions == 0 {
			evictless = append(evictless, us(b.Duration()))
		} else {
			evicting = append(evicting, us(b.Duration()))
			if firstEvict < 0 {
				firstEvict = int(b.ID)
			}
		}
	}
	a.Series = append(a.Series, s)

	se, sn := stats.Summarize(evicting), stats.Summarize(evictless)
	t := &report.Table{
		Title:   "Figure 12: batch cost by eviction presence",
		Headers: []string{"group", "batches", "mean_us", "max_us"},
	}
	t.AddRow("no-eviction", sn.N, sn.Mean, sn.Max)
	t.AddRow("evicting", se.N, se.Mean, se.Max)
	a.Tables = append(a.Tables, t)

	a.Notef("paper: many batches execute before memory fills; measured first eviction at batch %d of %d", firstEvict, len(res.Batches))
	a.Notef("paper: eviction batches carry greater overhead; measured mean %.0fus evicting vs %.0fus without (%.1fx)",
		se.Mean, sn.Mean, se.Mean/sn.Mean)
	return a, nil
}

// Fig13 reproduces Figure 13: stream under oversubscription shows multiple
// cost "levels" for the same eviction count. Claim: the upper level pays
// unmap_mapping_range (block still CPU-mapped on first GPU touch) plus the
// eviction; the lower level re-fetches previously evicted blocks, which
// are NOT remapped to the CPU, so the unmap cost vanishes.
func Fig13() (*Artifact, error) {
	a := &Artifact{ID: "fig13", Title: "stream oversubscription: eviction cost levels"}
	cfg := noPrefetch(baseConfig())
	cfg.Driver.GPUMemBytes = 40 << 20 // 3 x 16 MB arrays = 48 MB -> 120%
	w := workloads.NewStream(16<<20, 160)
	w.Iterations = 2 // second pass re-faults evicted blocks sans unmap
	res, err := run(cfg, w)
	if err != nil {
		return nil, err
	}

	s := &report.Series{
		Title:   "fig13",
		Columns: []string{"batch_id", "batch_us", "evictions", "unmap_pages"},
	}
	// Group by eviction count and split by unmap presence.
	var keys []int
	var durations []float64
	withUnmap := map[int][]float64{}
	sansUnmap := map[int][]float64{}
	for _, b := range res.Batches {
		s.AddRow(float64(b.ID), us(b.Duration()), float64(b.Evictions), float64(b.UnmapPages))
		ev := int(b.Evictions)
		keys = append(keys, ev)
		durations = append(durations, us(b.Duration()))
		if b.UnmapPages > 0 {
			withUnmap[ev] = append(withUnmap[ev], us(b.Duration()))
		} else {
			sansUnmap[ev] = append(sansUnmap[ev], us(b.Duration()))
		}
	}
	a.Series = append(a.Series, s)

	order, _ := stats.GroupBy(keys, durations)
	t := &report.Table{
		Title:   "Figure 13: cost levels per eviction count",
		Headers: []string{"evictions", "with_unmap_mean_us", "n", "sans_unmap_mean_us", "n", "level_gap_us"},
	}
	levels := 0
	for _, k := range order {
		wu := stats.Summarize(withUnmap[k])
		su := stats.Summarize(sansUnmap[k])
		gap := wu.Mean - su.Mean
		t.AddRow(k, wu.Mean, wu.N, su.Mean, su.N, gap)
		if wu.N > 0 && su.N > 0 && gap > 0 {
			levels++
		}
	}
	a.Tables = append(a.Tables, t)
	a.Notef("paper: same-eviction-count batches form levels; the lower level has near-zero unmap cost; measured %d eviction counts exhibiting both levels with the unmap level costlier", levels)
	return a, nil
}
