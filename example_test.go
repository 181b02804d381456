package guvm_test

import (
	"fmt"

	"guvm"
	"guvm/internal/workloads"
)

// Example runs the smallest possible simulation: the paper's Listing-1
// vector addition under demand paging, then prints the µTLB-limited first
// batch size the paper's Figure 3 shows.
func Example() {
	cfg := guvm.DefaultConfig()
	cfg.Driver.PrefetchEnabled = false

	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		panic(err)
	}
	res, err := s.Run(workloads.NewVecAddPaper())
	if err != nil {
		panic(err)
	}
	fmt.Printf("first batch: %d faults\n", res.Batches[0].RawFaults)
	// Output:
	// first batch: 56 faults
}

// ExampleSimulator_RunExplicit contrasts UVM demand paging with explicit
// (cudaMemcpy-style) management on the same workload.
func ExampleSimulator_RunExplicit() {
	mk := func() workloads.Workload {
		s := workloads.NewStream(8<<20, 16)
		s.ComputePerChunk = 0
		return s
	}
	cfg := guvm.DefaultConfig()
	uvmSim, err := guvm.NewSimulator(cfg)
	if err != nil {
		panic(err)
	}
	uvmRes, err := uvmSim.Run(mk())
	if err != nil {
		panic(err)
	}
	expSim, err := guvm.NewSimulator(cfg)
	if err != nil {
		panic(err)
	}
	expRes, err := expSim.RunExplicit(mk())
	if err != nil {
		panic(err)
	}
	fmt.Printf("explicit batches: %d\n", len(expRes.Batches))
	fmt.Printf("uvm slower: %v\n", uvmRes.KernelTime > expRes.KernelTime)
	// Output:
	// explicit batches: 0
	// uvm slower: true
}

// ExampleNewMultiSimulator shows two GPUs contending for the shared host
// fault-servicing driver.
func ExampleNewMultiSimulator() {
	m, err := guvm.NewMultiSimulator(guvm.DefaultConfig(), 2)
	if err != nil {
		panic(err)
	}
	results, err := m.RunConcurrent([]workloads.Workload{
		workloads.NewStream(4<<20, 8),
		workloads.NewStream(4<<20, 8),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("devices: %d\n", len(results))
	fmt.Printf("contention observed: %v\n", m.Arbiter.Stats().Queued > 0)
	// Output:
	// devices: 2
	// contention observed: true
}
