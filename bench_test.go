package guvm_test

import (
	"testing"

	"guvm"

	"guvm/internal/experiments"
	"guvm/internal/sim"
	"guvm/internal/workloads"
)

// ---- One benchmark per paper table and figure. ----
//
// Each iteration regenerates the artifact from scratch (the shared
// workload cache is reset), so the reported ns/op is the cost of
// reproducing that table or figure end-to-end. The artifact itself — the
// same rows/series the paper reports — is written by cmd/paperfigs.
//
// ResetCache clears ALL cross-experiment memo state by contract: every
// package-level cache in internal/experiments must be a single-flight
// memo cell wired into it (DESIGN.md §6.1), so cold-cache timings here
// cannot silently become warm-cache ones when a new cache is added.

func mustBenchSim(b *testing.B, cfg guvm.SystemConfig) *guvm.Simulator {
	b.Helper()
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		a, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Notes) == 0 {
			b.Fatal("experiment produced no observations")
		}
	}
}

func BenchmarkFig01AccessLatency(b *testing.B)    { benchExperiment(b, "fig01") }
func BenchmarkFig03VecaddBatches(b *testing.B)    { benchExperiment(b, "fig03") }
func BenchmarkFig04FaultTimestamps(b *testing.B)  { benchExperiment(b, "fig04") }
func BenchmarkFig05PrefetchBatch(b *testing.B)    { benchExperiment(b, "fig05") }
func BenchmarkTable2PerSMStats(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig06BatchCostFit(b *testing.B)     { benchExperiment(b, "fig06") }
func BenchmarkFig07TransferFraction(b *testing.B) { benchExperiment(b, "fig07") }
func BenchmarkFig08DedupSeries(b *testing.B)      { benchExperiment(b, "fig08") }
func BenchmarkFig09BatchSizeSweep(b *testing.B)   { benchExperiment(b, "fig09") }
func BenchmarkTable3VABlockStats(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig10VABlockCost(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11UnmapThreads(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12SgemmEviction(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13EvictionLevels(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14Prefetch(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15CombinedProfile(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkTable4PrefetchSpeedup(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig16GaussSeidelStudy(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17HPGMGStudy(b *testing.B)       { benchExperiment(b, "fig17") }

// §6-proposal ablation experiments (see internal/experiments).
func BenchmarkAblParallelServicing(b *testing.B)  { benchExperiment(b, "abl-parallel") }
func BenchmarkAblAdaptiveBatch(b *testing.B)      { benchExperiment(b, "abl-adaptive") }
func BenchmarkAblAsyncUnmap(b *testing.B)         { benchExperiment(b, "abl-asyncunmap") }
func BenchmarkAblCrossBlockPrefetch(b *testing.B) { benchExperiment(b, "abl-xblock") }
func BenchmarkAblEvictionPolicy(b *testing.B)     { benchExperiment(b, "abl-eviction") }
func BenchmarkAblHardwareLimits(b *testing.B)     { benchExperiment(b, "abl-hardware") }
func BenchmarkExtMultiGPU(b *testing.B)           { benchExperiment(b, "ext-multigpu") }

// ---- Ablation benches for the design choices DESIGN.md calls out. ----

// BenchmarkAblationBatchSize times one fault-heavy GEMM per driver batch
// size limit: the Figure 9 knob in isolation.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, bs := range []int{64, 256, 1024, 4096} {
		b.Run(itoa(bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := guvm.DefaultConfig()
				cfg.Driver.PrefetchEnabled = false
				cfg.Driver.BatchSize = bs
				w := workloads.NewSGEMM(1024)
				w.Tile = 512
				w.ChunkPages = 32
				w.ComputePerChunk = 10 * sim.Microsecond
				res, err := mustBenchSim(b, cfg).Run(w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KernelTime.Millis(), "kernel-ms")
				b.ReportMetric(float64(len(res.Batches)), "batches")
			}
		})
	}
}

// BenchmarkAblationPrefetchThreshold times the density prefetcher's
// occupancy threshold (UVM default 0.51).
func BenchmarkAblationPrefetchThreshold(b *testing.B) {
	for _, th := range []float64{0.25, 0.51, 0.75} {
		b.Run(ftoa(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := guvm.DefaultConfig()
				cfg.Driver.PrefetchThreshold = th
				res, err := mustBenchSim(b, cfg).Run(workloads.NewStream(32<<20, 24))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KernelTime.Millis(), "kernel-ms")
				b.ReportMetric(float64(res.DriverStats.PrefetchedPages), "prefetched")
			}
		})
	}
}

// BenchmarkAblationUnmapThreads times the host-OS unmap amplification by
// CPU thread count (Figure 11's knob in isolation).
func BenchmarkAblationUnmapThreads(b *testing.B) {
	for _, threads := range []int{1, 8, 32} {
		b.Run(itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := guvm.DefaultConfig()
				res, err := mustBenchSim(b, cfg).Run(workloads.NewHPGMG(32<<20, threads))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.KernelTime.Millis(), "kernel-ms")
				b.ReportMetric(float64(res.HostStats.UnmapTime)/1e6, "unmap-ms")
			}
		})
	}
}

// BenchmarkAblationEvictionExclusion times the same-batch eviction
// exclusion heuristic's scenario: heavy thrash where victims must be
// chosen among recently serviced blocks.
func BenchmarkAblationEvictionExclusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 16 << 20
		cfg.Driver.PrefetchEnabled = false
		s := workloads.NewStream(16<<20, 24)
		s.Iterations = 2
		res, err := mustBenchSim(b, cfg).Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DriverStats.Evictions), "evictions")
	}
}

// ---- Substrate micro-benchmarks (allocation behaviour via -benchmem). ----

// BenchmarkSimulatorStream is the end-to-end simulator throughput
// reference: one full 3x16 MB triad under default policies.
func BenchmarkSimulatorStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := mustBenchSim(b, guvm.DefaultConfig()).Run(workloads.NewStream(16<<20, 24))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DriverStats.TotalFaults), "faults")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	n := int(f*100 + 0.5)
	return itoa(n/100) + "p" + itoa(n%100)
}
