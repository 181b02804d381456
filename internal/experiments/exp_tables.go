package experiments

import (
	"guvm"
	"guvm/internal/report"
	"guvm/internal/sim"
	"guvm/internal/stats"
	"guvm/internal/workloads"
)

// tableWorkloads are the seven benchmarks of Tables 2 and 3. The synthetic
// regular/random benchmarks are page-strided fault hammers (saturating the
// batch limit like the paper's); the applications carry coalescing and
// ILP-bounded pacing, so they fault far more slowly. Random spans a large
// sparse array so nearly every fault lands in its own VABlock.
func tableWorkloads() []workloads.Workload {
	sgemm := workloads.NewSGEMM(2048)
	sgemm.Tile = 512
	sgemm.ChunkPages = 4
	sgemm.ComputePerChunk = 60 * sim.Microsecond
	return []workloads.Workload{
		workloads.NewRegular(128<<20, 160),
		workloads.NewRandom(2<<30, 160, 300, 11),
		sgemm,
		workloads.NewStream(32<<20, 12),
		workloads.NewFFT(4<<20, 10),
		workloads.NewGaussSeidel(3072, 2),
		workloads.NewHPGMG(64<<20, 1),
	}
}

// tableRunCache memoizes the shared Table 2/3 workload runs with
// single-flight semantics: concurrent generators that need the set (e.g.
// table2 and table3 under the parallel runner) compute it exactly once,
// and readers treat the map and its Results as immutable.
var tableRunCache memo[map[string]*guvm.Result]

// ResetCache discards all memoized cross-experiment state so benchmarks
// can time full regenerations. Today that is exactly the table-workload
// run set; any future package-level memo must be a memo cell reset here
// (see singleflight.go). Safe to call concurrently.
func ResetCache() { tableRunCache.Reset() }

// tableRuns executes the Table 2/3 workload set once (no prefetching, so
// the fault statistics reflect raw demand faults; in-core on a 4 GB
// capacity like the paper's in-core table runs) and memoizes results.
// Nothing is cached on failure, so a retry starts clean.
func tableRuns() (map[string]*guvm.Result, error) {
	return tableRunCache.Do(func() (map[string]*guvm.Result, error) {
		runs := make(map[string]*guvm.Result)
		for _, w := range tableWorkloads() {
			cfg := noPrefetch(baseConfig())
			cfg.Driver.GPUMemBytes = 4 << 30
			res, err := run(cfg, w)
			if err != nil {
				return nil, err
			}
			runs[w.Name()] = res
		}
		return runs, nil
	})
}

// Table2 reproduces Table 2: per-SM fault counts per batch. The paper's
// claims: batches mix faults from nearly all SMs; synthetic regular and
// random saturate at 256/80 = 3.2 faults per SM per batch, while real
// applications stay well below one-to-few faults per SM.
func Table2() (*Artifact, error) {
	a := &Artifact{ID: "table2", Title: "Per-SM source statistics in each batch"}
	numSMs := float64(baseConfig().GPU.NumSMs)

	t := &report.Table{
		Title:   "Table 2: per-SM faults per batch",
		Headers: []string{"benchmark", "avg_faults_per_sm", "std_dev", "min", "max"},
	}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	order := []string{"regular", "random", "sgemm", "stream", "cufft", "gauss-seidel", "hpgmg"}
	maxSynthetic, maxApp := 0.0, 0.0
	for _, name := range order {
		res := runs[name]
		perBatch := make([]float64, 0, len(res.Batches))
		for _, b := range res.Batches {
			perBatch = append(perBatch, float64(b.RawFaults)/numSMs)
		}
		s := stats.Summarize(perBatch)
		t.AddRow(name, s.Mean, s.StdDev, s.Min, s.Max)
		if name == "regular" || name == "random" {
			if s.Mean > maxSynthetic {
				maxSynthetic = s.Mean
			}
		} else if s.Mean > maxApp {
			maxApp = s.Mean
		}
	}
	a.Tables = append(a.Tables, t)
	a.Notef("paper: regular/random average ~3.0 faults/SM (cap 3.20 = 256/80); measured synthetic max avg %.2f", maxSynthetic)
	a.Notef("paper: applications average <1 fault/SM per batch; measured app max avg %.2f", maxApp)
	return a, nil
}

// Table3 reproduces Table 3: the distribution of batch faults over
// VABlocks. Claims: random spreads ~1 fault per block over hundreds of
// blocks; streaming/stencil codes concentrate tens of faults in a few
// blocks; the per-block variance is large for real applications, which is
// why per-VABlock driver parallelism would be imbalanced.
func Table3() (*Artifact, error) {
	a := &Artifact{ID: "table3", Title: "VABlock source statistics in a batch"}
	t := &report.Table{
		Title:   "Table 3: faults over VABlocks",
		Headers: []string{"benchmark", "vablocks_per_batch", "faults_per_vablock", "std_dev", "min", "max"},
	}
	runs, err := tableRuns()
	if err != nil {
		return nil, err
	}
	order := []string{"regular", "random", "sgemm", "stream", "cufft", "gauss-seidel", "hpgmg"}
	var randomBlocks, stencilBlocks float64
	for _, name := range order {
		res := runs[name]
		var blocksPerBatch []float64
		var faultsPerBlock []float64
		for _, b := range res.Batches {
			blocksPerBatch = append(blocksPerBatch, float64(len(b.VABlockFaults)))
			for _, c := range b.VABlockFaults {
				faultsPerBlock = append(faultsPerBlock, float64(c))
			}
		}
		sb := stats.Summarize(blocksPerBatch)
		sf := stats.Summarize(faultsPerBlock)
		t.AddRow(name, sb.Mean, sf.Mean, sf.StdDev, sf.Min, sf.Max)
		switch name {
		case "random":
			randomBlocks = sb.Mean
		case "gauss-seidel":
			stencilBlocks = sb.Mean
		}
	}
	a.Tables = append(a.Tables, t)
	a.Notef("paper: random touches ~233 VABlocks/batch at ~1 fault each; measured %.1f blocks/batch", randomBlocks)
	a.Notef("paper: gauss-seidel concentrates faults in ~2.3 blocks/batch; measured %.1f", stencilBlocks)
	return a, nil
}

// table4Scenario holds one Table 4 row pair's configuration.
type table4Scenario struct {
	name     string
	capacity uint64
	make     func() workloads.Workload
}

// Table4 reproduces Table 4: total batch and kernel times for Gauss-Seidel
// and HPGMG under modest oversubscription, with and without prefetching.
// The paper measures 3.39x (Gauss-Seidel) and 2.72x (HPGMG) kernel
// speedups from prefetching, with batch time strictly below kernel time.
func Table4() (*Artifact, error) {
	a := &Artifact{ID: "table4", Title: "Batch and kernel times, prefetch off/on"}
	scenarios := []table4Scenario{
		{
			name:     "Gauss-Seidel",
			capacity: 32 << 20, // grid 36 MB -> ~116% of capacity
			make:     func() workloads.Workload { return workloads.NewGaussSeidel(3072, 3) },
		},
		{
			name:     "HPGMG",
			capacity: 40 << 20, // levels sum ~50 MB -> ~125% of capacity
			make:     func() workloads.Workload { return workloads.NewHPGMG(40<<20, 1) },
		},
	}
	t := &report.Table{
		Title: "Table 4: batch and kernel execution times (ms)",
		Headers: []string{"benchmark", "noPF_batch_ms", "noPF_kernel_ms",
			"PF_batch_ms", "PF_kernel_ms", "kernel_speedup"},
	}
	var speedups []float64
	for _, sc := range scenarios {
		cfg := baseConfig()
		cfg.Driver.GPUMemBytes = sc.capacity
		off, err := run(noPrefetch(cfg), sc.make())
		if err != nil {
			return nil, err
		}
		on, err := run(cfg, sc.make())
		if err != nil {
			return nil, err
		}
		speedup := float64(off.KernelTime) / float64(on.KernelTime)
		speedups = append(speedups, speedup)
		t.AddRow(sc.name,
			ms(off.BatchTime()), ms(off.KernelTime),
			ms(on.BatchTime()), ms(on.KernelTime), speedup)
		if off.DriverStats.Evictions == 0 || on.DriverStats.Evictions == 0 {
			a.Notef("WARNING: %s did not evict (off=%d on=%d evictions)",
				sc.name, off.DriverStats.Evictions, on.DriverStats.Evictions)
		}
	}
	a.Tables = append(a.Tables, t)
	a.Notef("paper: prefetching speeds up Gauss-Seidel 3.39x and HPGMG 2.72x under modest oversubscription; measured %.2fx and %.2fx",
		speedups[0], speedups[1])
	a.Notef("paper: aggregate batch time is below kernel time (batching excludes interrupt + in-memory GPU work)")
	return a, nil
}
