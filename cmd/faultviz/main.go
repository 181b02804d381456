// Command faultviz dumps per-fault timelines of the paper's §3
// microbenchmarks — the data behind Figures 3, 4 and 5 — so fault-buffer
// behaviour (µTLB limits, scoreboard stalls, prefetch bypass, batching)
// can be inspected fault by fault.
//
// Usage:
//
//	faultviz               # Listing-1 vector addition
//	faultviz -prefetch     # the prefetch-instruction variant (Figure 5)
package main

import (
	"flag"
	"fmt"
	"os"

	"guvm"
	"guvm/internal/mem"
	"guvm/internal/obs"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

func main() {
	prefetch := flag.Bool("prefetch", false, "run the prefetch-instruction kernel (Figure 5)")
	auditOn := flag.Bool("audit", false, "run the invariant auditor alongside the simulation")
	ofl := obs.RegisterFlags(flag.CommandLine)
	pfl := obs.RegisterProfileFlags(flag.CommandLine)
	// Shared policy flag block (-evict/-prefetch-policy/-batch-sizing/
	// -arch/-list-policies); empty selections keep faultviz's raw-fault
	// defaults below.
	pol := uvm.RegisterPolicyFlags(flag.CommandLine)
	hwFault := flag.Bool("hw-fault", false, "enable the hardware fault domain (degraded/flapping link epochs at default rates)")
	hwKill := flag.Int("hw-kill-batch", 0, "kill the device after it completes this many fault batches (1-based; 0 disables)")
	flag.Parse()

	if pol.HandleList(os.Stdout) {
		return
	}

	cfg := guvm.DefaultConfig()
	cfg.Driver.PrefetchEnabled = false // expose raw fault mechanics
	cfg.KeepFaults = true
	cfg.Audit.Enabled = *auditOn
	ofl.Apply(&cfg.Obs)
	pfl.Apply(&cfg.Obs)
	cfg.Policies = pol.Selection()
	if *hwFault {
		cfg.Inject.LinkDegradeRate = 0.2
		cfg.Inject.LinkFlapRate = 0.1
	}
	cfg.Inject.KillBatch = *hwKill

	var w workloads.Workload
	if *prefetch {
		w = workloads.NewVecAddPrefetch()
	} else {
		w = workloads.NewVecAddPaper()
	}

	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultviz: %v\n", err)
		os.Exit(1)
	}
	if ofl.MetricsAddr != "" {
		srv, err := obs.Serve(ofl.MetricsAddr, s.Obs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultviz: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving on %s\n", srv.Addr())
	}
	res, err := s.Run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultviz: %v\n", err)
		os.Exit(1)
	}

	vector := func(p mem.PageID) (string, mem.PageID) {
		names := []string{"a", "b", "c"}
		for i := len(res.Bases) - 1; i >= 0; i-- {
			if p >= mem.PageOf(res.Bases[i]) {
				return names[i], p - mem.PageOf(res.Bases[i])
			}
		}
		return "?", p
	}

	fmt.Println("idx  batch  time_us   vec  page  kind      sm  utlb  dup")
	for i, f := range res.Faults {
		v, off := vector(f.Page)
		fmt.Printf("%-4d %-6d %9.2f %4s %5d  %-8s %3d %5d  %v\n",
			i, res.FaultBatch[i], f.Time.Micros(), v, off, f.Kind, f.SM, f.UTLB, f.Dup)
	}

	fmt.Println()
	fmt.Println("batch  faults  dur_us")
	for _, b := range res.Batches {
		fmt.Printf("%-6d %-7d %7.1f\n", b.ID, b.RawFaults, b.Duration().Micros())
	}
	fmt.Printf("\nkernel %.1f us, %d batches, %d faults fetched, %d re-faults\n",
		res.KernelTime.Micros(), len(res.Batches),
		res.DriverStats.TotalFaults, res.DeviceStats.Refaults)

	if cfg.Inject.HardwareEnabled() {
		fmt.Printf("hw faults: %d injected transfer drops, %d link retries, %d degraded ops\n",
			res.InjectStats.LinkTransfer.Injected, res.DriverStats.HWLinkRetries,
			res.LinkStats.DegradedOps)
		if res.DeviceFailed {
			fmt.Printf("device killed after batch %d: re-homed %d pages (%d VABlocks) to host\n",
				cfg.Inject.KillBatch, res.DriverStats.RehomedPages, res.DriverStats.RehomedBlocks)
		}
	}

	// s.Obs is nil unless some obs flag made the config Active; with it
	// nil there are no artifacts to write.
	if s.Obs != nil {
		if pfl.Enabled() {
			fmt.Printf("\nbatch-time breakdown (profiler)\n%s", s.Obs.Profiler.BreakdownTable())
		}
		if err := ofl.WriteArtifacts(s.Obs.Tracer, s.Obs.Sampler, fmt.Printf); err != nil {
			fmt.Fprintf(os.Stderr, "faultviz: %v\n", err)
			os.Exit(1)
		}
		if err := pfl.WriteArtifacts(s.Obs.Profiler, fmt.Printf); err != nil {
			fmt.Fprintf(os.Stderr, "faultviz: %v\n", err)
			os.Exit(1)
		}
	}
}
