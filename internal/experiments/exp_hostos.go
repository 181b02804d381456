package experiments

import (
	"guvm"
	"guvm/internal/report"
	"guvm/internal/trace"
	"guvm/internal/workloads"
)

// Fig11 reproduces Figure 11: the same HPGMG problem with single-threaded
// vs default (multi-threaded) host-side OpenMP work. Claims: the
// single-threaded configuration runs roughly twice as fast, and the gap is
// attributable to unmap_mapping_range on the fault path — multithreaded
// host touching makes CPU page unmapping far more expensive.
func Fig11() (*Artifact, error) {
	a := &Artifact{ID: "fig11", Title: "HPGMG host threading vs unmap cost"}
	cfg := baseConfig()

	mk := func(threads int) workloads.Workload {
		w := workloads.NewHPGMG(64<<20, threads)
		// Figure 11's NVIDIA HPGMG build runs many boxes concurrently
		// and re-touches most of the fine grid between cycles.
		w.Blocks = 16
		w.ChunkPages = 16
		w.HostTouchFraction = 1.0
		return w
	}
	single, err := run(cfg, mk(1))
	if err != nil {
		return nil, err
	}
	multi, err := run(cfg, mk(32))
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Figure 11: HPGMG, 1 host thread vs 32",
		Headers: []string{"config", "kernel_ms", "batch_ms", "unmap_ms", "mean_unmap_fraction"},
	}
	series := &report.Series{
		Title:   "fig11",
		Columns: []string{"threads", "batch_id", "batch_us", "unmap_fraction"},
	}
	row := func(name string, threads int, res *guvm.Result) (kernel, unmapMs float64) {
		var unmap, frac float64
		for _, b := range res.Batches {
			unmap += us(b.TUnmap)
			frac += b.Share(trace.StageUnmap)
			series.AddRow(float64(threads), float64(b.ID), us(b.Duration()), b.Share(trace.StageUnmap))
		}
		n := float64(len(res.Batches))
		t.AddRow(name, ms(res.KernelTime), ms(res.BatchTime()), unmap/1000, frac/n)
		return ms(res.KernelTime), unmap / 1000
	}
	kSingle, uSingle := row("1-thread", 1, single)
	kMulti, uMulti := row("32-thread", 32, multi)
	a.Tables = append(a.Tables, t)
	a.Series = append(a.Series, series)

	a.Notef("paper: single-threaded host config shows roughly twice the performance; measured multi/single kernel ratio %.2fx", kMulti/kSingle)
	a.Notef("paper: multithreading exaggerates per-batch unmap share; measured unmap time %.1fms (1t) vs %.1fms (32t)", uSingle, uMulti)
	return a, nil
}
