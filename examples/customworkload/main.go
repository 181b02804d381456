// Custom workload: implement the workloads.Workload interface from scratch
// — a pointer-chasing graph traversal with a host phase between passes —
// and run it under UVM. This is the extension point downstream users adopt
// the library for.
package main

import (
	"fmt"
	"log"

	"guvm"
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/workloads"
)

// graphWalk models an irregular BFS-like traversal: each block chases a
// pseudo-random chain through a large node array, with one page fault per
// hop — the worst case for demand paging and the reason graph codes drove
// much of the UVM-optimization literature.
type graphWalk struct {
	nodesBytes uint64
	walkers    int
	hops       int
	seed       uint64
}

func (g *graphWalk) Name() string { return "graph-walk" }

func (g *graphWalk) Allocs() []workloads.Alloc {
	return []workloads.Alloc{
		{Name: "nodes", Bytes: g.nodesBytes, HostInit: true, HostThreads: 8},
	}
}

func (g *graphWalk) Phases(bases []mem.Addr) []workloads.Phase {
	first := mem.PageOf(bases[0])
	totalPages := g.nodesBytes / mem.PageSize
	kernel := gpu.Kernel{
		NumBlocks: g.walkers,
		BlockProgram: func(blk int) []gpu.Program {
			rng := sim.NewRNG(g.seed + uint64(blk)*7919)
			var prog gpu.Program
			for hop := 0; hop < g.hops; hop++ {
				// Each hop's load feeds the next hop's address:
				// a true dependent chain.
				page := first + mem.PageID(rng.Uint64n(totalPages))
				prog.Read(0, page, 1)
				prog.Compute(2*sim.Microsecond, gpu.Regs(0))
			}
			return []gpu.Program{prog}
		},
	}
	return []workloads.Phase{
		{Name: "pass1", Kernel: kernel},
		// Host updates frontier data between passes, restoring CPU
		// mappings on part of the array.
		{Name: "host-frontier", HostTouches: []workloads.HostTouch{
			{Base: bases[0], Bytes: g.nodesBytes / 4, Threads: 8},
		}},
		{Name: "pass2", Kernel: kernel},
	}
}

func main() {
	w := func() workloads.Workload {
		return &graphWalk{nodesBytes: 96 << 20, walkers: 64, hops: 200, seed: 1}
	}

	runCase := func(label, prefetch string, capMB uint64) *guvm.Result {
		cfg := guvm.DefaultConfig()
		cfg.Policies.Prefetch = prefetch
		cfg.Driver.GPUMemBytes = capMB << 20
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(w())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s kernel %7.1f ms  batches %4d  migrated %6.1f MiB  evictions %3d\n",
			label, res.KernelTime.Millis(), len(res.Batches),
			float64(res.BytesMigrated())/(1<<20), res.DriverStats.Evictions)
		return res
	}

	fmt.Println("-- in-core (256 MB GPU): prefetching trades traffic for batches --")
	runCase("demand, in-core", "off", 256)
	runCase("prefetch, in-core", "tree", 256)

	fmt.Println("\n-- oversubscribed (64 MB GPU, 96 MB graph): the §5.3 pathology --")
	runCase("demand, oversubscribed", "off", 64)
	runCase("prefetch, oversubscribed", "tree", 64)

	fmt.Println("\nIrregular access + oversubscription is where prefetching hurts:")
	fmt.Println("64 KB regions prefetched around single-page hops must be evicted")
	fmt.Println("again, paying migration twice — the paper's §5.3 interplay and the")
	fmt.Println("reason graph codes drove so much UVM-optimization work.")
}
