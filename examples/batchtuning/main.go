// Batch tuning: sweep the driver's fault batch size limit (UVM defaults to
// 256) and the prefetch threshold on a fault-heavy GEMM — the §4.2 / §5.2
// policy knobs a driver engineer would actually turn.
package main

import (
	"fmt"
	"log"

	"guvm"
	"guvm/internal/sim"
	"guvm/internal/workloads"
)

func gemm() *workloads.GEMM {
	w := workloads.NewSGEMM(2048)
	w.Tile = 512
	w.ChunkPages = 32
	w.ComputePerChunk = 10 * sim.Microsecond
	return w
}

func main() {
	fmt.Println("-- fault batch size sweep (prefetch off) --")
	fmt.Println("batch_size  batches  kernel_ms  dups_per_batch")
	for _, bs := range []int{64, 128, 256, 512, 1024, 2048} {
		cfg := guvm.DefaultConfig()
		cfg.Policies.Prefetch = "off"
		cfg.Driver.BatchSize = bs
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(gemm())
		if err != nil {
			log.Fatal(err)
		}
		dups := 0
		for _, b := range res.Batches {
			dups += b.DupFaults()
		}
		fmt.Printf("%10d  %7d  %9.1f  %14.1f\n",
			bs, len(res.Batches), res.KernelTime.Millis(),
			float64(dups)/float64(len(res.Batches)))
	}

	fmt.Println("\n-- prefetch threshold sweep (density prefetcher) --")
	fmt.Println("threshold  batches  kernel_ms  prefetched_pages")
	for _, th := range []float64{0.25, 0.51, 0.75, 1.0} {
		cfg := guvm.DefaultConfig()
		cfg.Driver.PrefetchThreshold = th
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(gemm())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%9.2f  %7d  %9.1f  %16d\n",
			th, len(res.Batches), res.KernelTime.Millis(),
			res.DriverStats.PrefetchedPages)
	}
}
