package experiments

import (
	"guvm/internal/report"
	"guvm/internal/sim"
	"guvm/internal/stats"
	"guvm/internal/trace"
	"guvm/internal/workloads"
)

// Fig06 reproduces Figure 6: best-fit lines of per-batch cost against the
// amount of data migrated, one per application. Claim: average batch cost
// rises linearly with data moved, with application-dependent intercepts
// and high per-application variance.
func Fig06() (*Artifact, error) {
	a := &Artifact{ID: "fig06", Title: "Batch time vs data migrated: linear fits"}
	t := &report.Table{
		Title:   "Figure 6: least-squares fit of batch time (us) vs data migrated (KB)",
		Headers: []string{"benchmark", "slope_us_per_KB", "intercept_us", "r2", "batches"},
	}
	scatter := &report.Series{
		Title:   "fig06",
		Columns: []string{"bench_idx", "migrated_KB", "batch_us"},
	}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	order := []string{"regular", "sgemm", "stream", "cufft", "gauss-seidel", "hpgmg"}
	positive := 0
	fitted := 0
	for bi, name := range order {
		res := runs[name]
		var xs, ys []float64
		for _, b := range res.Batches {
			if b.PagesMigrated == 0 {
				continue
			}
			x := float64(b.BytesMigrated) / 1024
			y := us(b.Duration())
			xs = append(xs, x)
			ys = append(ys, y)
			scatter.AddRow(float64(bi), x, y)
		}
		// Synthetic benchmarks produce near-identical batches; a
		// regression over a constant x is meaningless, so mark it n/a.
		sx := stats.Summarize(xs)
		if sx.StdDev < 0.02*sx.Mean {
			t.AddRow(name, "n/a (uniform batches)", "-", "-", len(xs))
			continue
		}
		fitted++
		fit := stats.FitLine(xs, ys)
		t.AddRow(name, fit.Slope, fit.Intercept, fit.R2, len(xs))
		if fit.Slope > 0 {
			positive++
		}
	}
	a.Tables = append(a.Tables, t)
	a.Series = append(a.Series, scatter)
	a.Notef("paper: batch cost rises linearly with migrated data for all applications; measured positive slope in %d/%d fittable benchmarks", positive, fitted)
	a.Notes = append(a.Notes,
		"note: the strided FFT anticorrelates migration size with VABlock count (small scattered batches are the expensive ones), confounding its univariate fit — Figure 10's joint fit separates the terms")
	return a, nil
}

// Fig07 reproduces Figure 7: the share of each sgemm batch spent in data
// transfer. Claim: at most ~25%% of batch time is the transfer itself —
// management, not movement, dominates.
func Fig07() (*Artifact, error) {
	a := &Artifact{ID: "fig07", Title: "Transfer share of batch time (sgemm)"}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	res := runs["sgemm"]

	s := &report.Series{
		Title:   "fig07",
		Columns: []string{"batch_id", "migrated_KB", "transfer_fraction"},
	}
	var fracs []float64
	for _, b := range res.Batches {
		f := b.Share(trace.StageTransfer)
		fracs = append(fracs, f)
		s.AddRow(float64(b.ID), float64(b.BytesMigrated)/1024, f)
	}
	a.Series = append(a.Series, s)

	sum := stats.Summarize(fracs)
	t := &report.Table{
		Title:   "Figure 7: transfer fraction summary",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("mean", sum.Mean)
	t.AddRow("p95", stats.Percentile(fracs, 95))
	t.AddRow("max", sum.Max)
	a.Tables = append(a.Tables, t)

	a.Notef("paper: transfer is at most ~25%% of batch time and typically far lower; measured mean %.0f%%, max %.0f%%",
		sum.Mean*100, sum.Max*100)
	return a, nil
}

// Fig08 reproduces Figure 8: batch sizes over an application's lifetime,
// raw vs with duplicate faults removed, for stream and sgemm. Claims: the
// workload is application-driven (sgemm shows phases, stream is uniform),
// and dedup substantially shrinks batches for both.
func Fig08() (*Artifact, error) {
	a := &Artifact{ID: "fig08", Title: "Batch size time series, raw vs deduplicated"}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"stream", "sgemm"} {
		res := runs[name]
		s := &report.Series{
			Title:   "fig08-" + name,
			Columns: []string{"batch_id", "raw_faults", "unique_faults"},
		}
		var raw, uniq float64
		for _, b := range res.Batches {
			s.AddRow(float64(b.ID), float64(b.RawFaults), float64(b.UniquePages))
			raw += float64(b.RawFaults)
			uniq += float64(b.UniquePages)
		}
		a.Series = append(a.Series, s)
		a.Notef("%s: dedup removes %.0f%% of faults (%d batches)", name,
			(1-uniq/raw)*100, len(res.Batches))
	}
	a.Notes = append(a.Notes,
		"paper: filtering duplicates greatly alters average batch size for both applications, non-uniformly across and within applications")
	return a, nil
}

// Fig09 reproduces Figure 9: sgemm performance across fault batch size
// limits. Claims: larger batches beat the 256 default despite carrying
// more duplicates, with diminishing returns — beyond ~1024 the unique
// faults available per batch (bounded by flush + fault-generation limits)
// stop growing.
func Fig09() (*Artifact, error) {
	a := &Artifact{ID: "fig09", Title: "Performance vs fault batch size (sgemm)"}
	t := &report.Table{
		Title:   "Figure 9: batch size sweep",
		Headers: []string{"batch_size", "kernel_ms", "batches", "avg_unique_per_batch", "avg_dups_per_batch"},
	}
	s := &report.Series{Title: "fig09", Columns: []string{"batch_size", "kernel_ms", "avg_unique"}}
	sizes := []int{128, 256, 512, 1024, 2048, 4096, 6144}
	kernels := map[int]float64{}
	uniques := map[int]float64{}
	for _, bs := range sizes {
		cfg := noPrefetch(baseConfig())
		cfg.Driver.BatchSize = bs
		// A wide-ILP sgemm: cuBLAS keeps hundreds of unique pages in
		// flight, so the batch cap binds and raising it pays off.
		w := workloads.NewSGEMM(4096)
		w.Tile = 1024
		w.ChunkPages = 32
		w.ComputePerChunk = 10 * sim.Microsecond
		res, err := run(cfg, w)
		if err != nil {
			return nil, err
		}
		var uniq, dups float64
		for _, b := range res.Batches {
			uniq += float64(b.UniquePages)
			dups += float64(b.DupFaults())
		}
		n := float64(len(res.Batches))
		t.AddRow(bs, ms(res.KernelTime), len(res.Batches), uniq/n, dups/n)
		s.AddRow(float64(bs), ms(res.KernelTime), uniq/n)
		kernels[bs] = ms(res.KernelTime)
		uniques[bs] = uniq / n
	}
	a.Tables = append(a.Tables, t)
	a.Series = append(a.Series, s)
	a.Notef("paper: performance improves with batch size; measured kernel %.1fms @128 -> %.1fms @1024 -> %.1fms @6144",
		kernels[128], kernels[1024], kernels[6144])
	a.Notef("paper: diminishing returns past ~1024 as unique faults/batch saturate (~500); measured avg unique %.0f @1024 vs %.0f @6144",
		uniques[1024], uniques[6144])
	return a, nil
}

// Fig10 reproduces Figure 10: batch time against migration size, grouped
// by the number of VABlocks in the batch. Claim: for similar migration
// sizes, batches spanning more VABlocks cost more (each block is a
// separate processing step).
func Fig10() (*Artifact, error) {
	a := &Artifact{ID: "fig10", Title: "Batch time vs migration size by VABlock count"}
	s := &report.Series{
		Title:   "fig10",
		Columns: []string{"bench_idx", "migrated_KB", "batch_us", "vablocks"},
	}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	order := []string{"regular", "sgemm", "cufft", "gauss-seidel"}
	for bi, name := range order {
		for _, b := range runs[name].Batches {
			s.AddRow(float64(bi), float64(b.BytesMigrated)/1024, us(b.Duration()), float64(b.VABlocks))
		}
	}
	a.Series = append(a.Series, s)

	// Quantify the claim with a two-predictor regression over the pooled
	// application batches: batch_time ~ B1*bytes + B2*vablocks. A
	// positive B2 is the paper's "more VABlocks at the same size costs
	// more", with B1 capturing the per-byte component.
	var bytesKB, blocks, times []float64
	for _, name := range order {
		for _, b := range runs[name].Batches {
			if b.PagesMigrated == 0 {
				continue
			}
			bytesKB = append(bytesKB, float64(b.BytesMigrated)/1024)
			blocks = append(blocks, float64(b.VABlocks))
			times = append(times, us(b.Duration()))
		}
	}
	fit := stats.FitPlane(bytesKB, blocks, times)
	t := &report.Table{
		Title:   "Figure 10: joint fit batch_us ~ migrated_KB + VABlocks (pooled)",
		Headers: []string{"term", "coefficient"},
	}
	t.AddRow("us_per_KB", fit.B1)
	t.AddRow("us_per_VABlock", fit.B2)
	t.AddRow("intercept_us", fit.Intercept)
	t.AddRow("batches", len(times))
	a.Tables = append(a.Tables, t)
	a.Notef("paper: for the same migration size, more VABlocks incur higher cost; measured marginal cost %.1fus per additional VABlock (per-KB term %.2fus)", fit.B2, fit.B1)
	return a, nil
}
