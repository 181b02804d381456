// Command uvmsim runs one workload through the UVM simulator and prints a
// batch-level summary — the quickest way to explore driver policies.
//
// Usage:
//
//	uvmsim -workload stream -mb 64 -gpu-mb 256 -batch 256 -prefetch=true
//	uvmsim -workload sgemm -n 2048 -gpu-mb 24 -prefetch=false -batches
//	uvmsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"guvm"
	"guvm/internal/analysis"
	"guvm/internal/faultinject"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/stats"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

func main() {
	// Injection flag defaults come from the injector's own defaults, so
	// the CLI cannot drift from them.
	inj := faultinject.DefaultConfig()
	var (
		name        = flag.String("workload", "stream", "workload name (see -list)")
		mb          = flag.Uint64("mb", 64, "workload footprint knob in MiB (per array / fine grid)")
		n           = flag.Int("n", 2048, "problem dimension for gemm/gauss-seidel")
		gpuMB       = flag.Uint64("gpu-mb", 256, "GPU memory capacity in MiB")
		batch       = flag.Int("batch", 256, "fault batch size limit")
		prefetch    = flag.Bool("prefetch", true, "enable the density prefetcher")
		hostThreads = flag.Int("host-threads", 1, "CPU threads for host-side phases")
		seed        = flag.Uint64("seed", 11, "workload RNG seed")
		explicit    = flag.Bool("explicit", false, "explicit (cudaMemcpy-style) management instead of UVM")
		showBatches = flag.Bool("batches", false, "print per-batch records")
		list        = flag.Bool("list", false, "list workloads and exit")

		// Runtime invariant auditing (internal/audit).
		auditOn   = flag.Bool("audit", false, "run the invariant auditor alongside the simulation; violations fail the run")
		verifyDet = flag.Bool("verify-determinism", false, "run the workload twice and compare per-batch state digests; exits non-zero on divergence")

		// §6-proposal driver extensions.
		workers    = flag.Int("workers", 1, "parallel VABlock service workers")
		lpt        = flag.Bool("lpt", false, "LPT load balancing across workers")
		asyncUnmap = flag.Bool("async-unmap", false, "preemptive CPU unmapping at kernel launch")
		xblock     = flag.Int("xblock-prefetch", 0, "cross-VABlock prefetch scope (blocks ahead)")

		// Named policy selection (the registry in internal/uvm): the shared
		// -evict/-prefetch-policy/-batch-sizing/-arch/-list-policies block.
		// An empty -prefetch-policy keeps -prefetch and -xblock-prefetch;
		// a named one overrides them.
		pol       = uvm.RegisterPolicyFlags(flag.CommandLine)
		analyze   = flag.Bool("analyze", false, "print post-run telemetry analysis")
		traceFile = flag.String("trace", "", "replay a recorded access trace instead of a named workload")
		csvOut    = flag.String("csv", "", "write per-batch records as CSV to this file (with injected-fault columns when software injection is on)")
		faultsOut = flag.String("faults-jsonl", "", "write per-fault records as JSON lines to this file (enables fault retention)")

		// Observability (internal/obs): the shared flag set (-trace-out,
		// -metrics-csv/-json/-interval, -metrics-addr) plus uvmsim-only
		// extras. All off by default.
		ofl         = obs.RegisterFlags(flag.CommandLine)
		pfl         = obs.RegisterProfileFlags(flag.CommandLine)
		traceEngine = flag.Bool("trace-engine", false, "also mark every engine dispatch in the trace (with -trace-out; capped)")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the -metrics-addr endpoint up this long after the run finishes")

		// Deterministic fault injection (all rates default to 0 = off).
		injSeed        = flag.Uint64("inject-seed", inj.Seed, "fault-injection RNG seed (software categories and hardware regimes)")
		injDropRate    = flag.Float64("inject-drop-rate", 0, "probability a fault record is dropped before reaching the fault buffer")
		injDropRetries = flag.Int("inject-drop-retries", inj.BufferDropRetries, "hardware re-emission attempts for a dropped fault record")
		injMigRate     = flag.Float64("inject-mig-rate", 0, "probability a DMA transfer attempt fails transiently")
		injMigRetries  = flag.Int("inject-mig-retries", inj.MigrateMaxRetries, "transfer retries (with exponential backoff) before a migration is fatal")
		injHostRate    = flag.Float64("inject-host-rate", 0, "probability a host page-population call fails")
		injHostRetries = flag.Int("inject-host-retries", inj.HostAllocMaxRetries, "population retries (with batch shrinking and forced eviction) before fatal")

		// Hardware regimes of the same injector: seeded link
		// degradation/flapping epochs and scheduled device death. Off by
		// default; -hw-fault enables the link regimes at the rates below,
		// -hw-kill-batch schedules device death on its own.
		hwFault         = flag.Bool("hw-fault", false, "enable the hardware fault domain (degraded/flapping link epochs)")
		hwEpoch         = flag.Duration("hw-epoch", time.Duration(inj.EpochLength), "virtual-time length of one link-health epoch")
		hwDegradeRate   = flag.Float64("hw-degrade-rate", 0.2, "probability a link-health epoch runs at degraded bandwidth (with -hw-fault)")
		hwDegradeFactor = flag.Float64("hw-degrade-factor", inj.DegradedBandwidthFactor, "bandwidth multiplier during a degraded epoch")
		hwFlapRate      = flag.Float64("hw-flap-rate", 0.1, "probability a link-health epoch is flapping (with -hw-fault)")
		hwFlapDrop      = flag.Float64("hw-flap-drop-rate", inj.FlapDropRate, "probability one transfer operation drops during a flapping epoch")
		hwRetryLimit    = flag.Int("hw-retry-limit", inj.LinkRetryLimit, "driver transfer retries after a dropped operation before the link failure is fatal")
		hwKillBatch     = flag.Int("hw-kill-batch", 0, "kill the device after it completes this many fault batches (1-based; 0 disables)")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads.CatalogNames() {
			fmt.Println(w)
		}
		return
	}
	if pol.HandleList(os.Stdout) {
		return
	}

	var w workloads.Workload
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", ferr)
			os.Exit(2)
		}
		w, err = workloads.ParseTrace(f)
		f.Close()
	} else {
		var mk func() workloads.Workload
		mk, err = workloads.ByName(*name, *mb, *n, *seed, *hostThreads)
		if err == nil {
			w = mk()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
		os.Exit(2)
	}

	cfg := guvm.DefaultConfig()
	cfg.Driver.GPUMemBytes = *gpuMB << 20
	cfg.Driver.BatchSize = *batch
	cfg.Driver.PrefetchEnabled = *prefetch
	cfg.Driver.ServiceWorkers = *workers
	cfg.Driver.LoadBalanceLPT = *lpt
	cfg.Driver.AsyncUnmap = *asyncUnmap
	cfg.Driver.CrossBlockPrefetch = *xblock
	cfg.Policies = pol.Selection()
	// Validate eagerly so an unregistered name is rejected (with the valid
	// options) before any simulation runs, for every run mode.
	if err := cfg.Policies.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
		os.Exit(2)
	}

	if *faultsOut != "" {
		cfg.KeepFaults = true
	}
	cfg.Inject.Seed = *injSeed
	cfg.Inject.BufferDropRate = *injDropRate
	cfg.Inject.BufferDropRetries = *injDropRetries
	cfg.Inject.MigrateFailRate = *injMigRate
	cfg.Inject.MigrateMaxRetries = *injMigRetries
	cfg.Inject.HostAllocFailRate = *injHostRate
	cfg.Inject.HostAllocMaxRetries = *injHostRetries
	if *hwFault || *hwKillBatch > 0 {
		cfg.Inject.EpochLength = sim.Time(hwEpoch.Nanoseconds())
		cfg.Inject.DegradedBandwidthFactor = *hwDegradeFactor
		cfg.Inject.FlapDropRate = *hwFlapDrop
		cfg.Inject.LinkRetryLimit = *hwRetryLimit
		cfg.Inject.KillBatch = *hwKillBatch
		if *hwFault {
			cfg.Inject.LinkDegradeRate = *hwDegradeRate
			cfg.Inject.LinkFlapRate = *hwFlapRate
		}
	}
	cfg.Audit.Enabled = *auditOn
	ofl.Apply(&cfg.Obs)
	pfl.Apply(&cfg.Obs)
	cfg.Obs.EngineEvents = *traceEngine

	if *verifyDet {
		if *explicit {
			fmt.Fprintln(os.Stderr, "uvmsim: -verify-determinism applies to UVM runs, not -explicit")
			os.Exit(2)
		}
		rep, err := guvm.VerifyDeterminism(cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		if !rep.Match {
			fmt.Fprintf(os.Stderr, "uvmsim: determinism check FAILED: first divergent batch %d (%d snapshots compared)\n",
				rep.FirstDivergentBatch, rep.Compared)
			fmt.Fprintf(os.Stderr, "--- run A state at divergence ---\n%s\n", rep.A.Dump)
			fmt.Fprintf(os.Stderr, "--- run B state at divergence ---\n%s\n", rep.B.Dump)
			os.Exit(1)
		}
		fmt.Printf("determinism verified: %d per-batch state digests identical across two runs\n", rep.Compared)
		return
	}

	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
		os.Exit(2)
	}
	var metricsSrv *obs.Server
	if ofl.MetricsAddr != "" {
		metricsSrv, err = obs.Serve(ofl.MetricsAddr, s.Obs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("metrics: serving on %s\n", metricsSrv.Addr())
	}
	var res *guvm.Result
	if *explicit {
		res, err = s.RunExplicit(w)
	} else {
		res, err = s.Run(w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("workload        %s\n", res.Workload)
	fmt.Printf("kernel time     %.3f ms\n", res.KernelTime.Millis())
	fmt.Printf("total time      %.3f ms\n", res.TotalTime.Millis())
	fmt.Printf("batches         %d (%.3f ms total)\n", len(res.Batches), res.BatchTime().Millis())
	fmt.Printf("faults          %d raw, %d stale\n", res.DriverStats.TotalFaults, res.DriverStats.StaleFaults)
	fmt.Printf("migrated        %.1f MiB to GPU, %.1f MiB written back\n",
		float64(res.LinkStats.BytesToGPU)/(1<<20), float64(res.LinkStats.BytesToHost)/(1<<20))
	fmt.Printf("prefetched      %d pages\n", res.DriverStats.PrefetchedPages)
	fmt.Printf("evictions       %d VABlocks\n", res.DriverStats.Evictions)
	fmt.Printf("host OS         %d unmap calls (%d pages), %d DMA pages, %d radix nodes\n",
		res.HostStats.UnmapCalls, res.HostStats.PagesUnmapped,
		res.HostStats.DMAPagesMapped, res.HostStats.RadixNodes)
	if res.Audit != nil {
		fmt.Printf("audit           %d batches audited, %d checks, %d violations, final digest %016x\n",
			res.Audit.BatchesAudited, res.Audit.ChecksRun, len(res.Audit.Violations), res.Audit.FinalDigest)
	}

	is := res.InjectStats
	if cfg.Inject.SoftwareEnabled() {
		fmt.Printf("injected faults (category: injected/retried/recovered/unrecovered)\n")
		fmt.Printf("  buffer-drop   %d/%d/%d/%d\n",
			is.BufferDrop.Injected, is.BufferDrop.Retried, is.BufferDrop.Recovered, is.BufferDrop.Unrecovered)
		fmt.Printf("  migrate       %d/%d/%d/%d\n",
			is.Migrate.Injected, is.Migrate.Retried, is.Migrate.Recovered, is.Migrate.Unrecovered)
		fmt.Printf("  host-alloc    %d/%d/%d/%d\n",
			is.HostAlloc.Injected, is.HostAlloc.Retried, is.HostAlloc.Recovered, is.HostAlloc.Unrecovered)
		fmt.Printf("  driver        %d migration retries, %d host-alloc failures, %d batch shrinks\n",
			res.DriverStats.MigRetries, res.DriverStats.HostAllocFailures, res.DriverStats.BatchShrinks)
		fmt.Printf("  device        %d buffer drops injected, %d re-emitted, %d lost to replay recovery\n",
			res.DeviceStats.InjectedDrops, res.DeviceStats.InjectedDropRetries, res.DeviceStats.InjectedDropsLost)
	}

	if cfg.Inject.HardwareEnabled() {
		healthy, degraded, flapping := s.Injector.EpochHealthCounts(0, res.TotalTime)
		fmt.Printf("hw fault domain (link epochs: %d healthy, %d degraded, %d flapping)\n",
			healthy, degraded, flapping)
		n := is.LinkTransfer
		fmt.Printf("  link-transfer %d/%d/%d/%d (injected/retried/recovered/unrecovered)\n",
			n.Injected, n.Retried, n.Recovered, n.Unrecovered)
		fmt.Printf("  driver        %d degraded ops, %d link retries, %d degraded-aware shrinks\n",
			res.LinkStats.DegradedOps, res.DriverStats.HWLinkRetries, res.DriverStats.DegradedShrinks)
		if res.DeviceFailed {
			ds := res.DriverStats
			fmt.Printf("  device death  after batch %d: re-homed %d VABlocks, %d/%d resident pages (%.1f MiB) to host\n",
				cfg.Inject.KillBatch, ds.RehomedBlocks, ds.RehomedPages, ds.ResidentAtKill,
				float64(ds.RehomedBytes)/(1<<20))
		}
	}

	if len(res.Batches) > 0 {
		durs := make([]float64, len(res.Batches))
		for i, b := range res.Batches {
			durs[i] = b.Duration().Micros()
		}
		s := stats.Summarize(durs)
		sort.Float64s(durs)
		fmt.Printf("batch time (us) mean %.1f  p50 %.1f  p95 %.1f  max %.1f\n",
			s.Mean, stats.Percentile(durs, 50), stats.Percentile(durs, 95), s.Max)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteBatchesCSV(f, res.Batches, cfg.Inject.SoftwareEnabled()); err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d batch records to %s\n", len(res.Batches), *csvOut)
	}
	if *faultsOut != "" {
		f, err := os.Create(*faultsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteFaultsJSONL(f, res.Faults, res.FaultBatch); err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d fault records to %s\n", len(res.Faults), *faultsOut)
	}
	// s.Obs is nil unless some obs flag made the config Active; with it
	// nil there are no artifacts to write.
	if s.Obs != nil {
		if pfl.Enabled() {
			fmt.Printf("\nbatch-time breakdown (profiler)\n%s", s.Obs.Profiler.BreakdownTable())
		}
		if err := ofl.WriteArtifacts(s.Obs.Tracer, s.Obs.Sampler, fmt.Printf); err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
		if err := pfl.WriteArtifacts(s.Obs.Profiler, fmt.Printf); err != nil {
			fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *analyze && len(res.Batches) > 0 {
		fmt.Println()
		d := analysis.Duplicates(res.Batches)
		fmt.Printf("duplicates      %d raw -> %d unique (%.0f%% dup: %d type-1, %d type-2)\n",
			d.Raw, d.Unique, d.DupPercent, d.Type1, d.Type2)
		fmt.Printf("block imbalance Gini %.2f over per-VABlock fault counts\n",
			analysis.VABlockImbalance(res.Batches))
		gaps := analysis.ServiceGaps(res.Batches)
		fmt.Printf("service gaps    mean %.1f us (max %.1f us)\n", gaps.Mean/1000, gaps.Max/1000)
		sh := analysis.Shares(res.Batches)
		fmt.Printf("time shares     fetch %.0f%%  dedup %.0f%%  blocks %.0f%%  populate %.0f%%  PT %.0f%%\n",
			100*sh.Fetch, 100*sh.Dedup, 100*sh.BlockMgmt, 100*sh.Populate, 100*sh.PageTable)
		fmt.Printf("                dma %.0f%%  unmap %.0f%%  transfer %.0f%%  evict %.0f%%  replay %.0f%%  other %.0f%%\n",
			100*sh.DMAMap, 100*sh.Unmap, 100*sh.Transfer, 100*sh.Evict, 100*sh.Replay, 100*sh.Other)
		phases := analysis.SegmentPhases(res.Batches, 8, 0.5)
		fmt.Printf("phases          %d batching phases:", len(phases))
		for _, p := range phases {
			fmt.Printf(" [%d-%d]~%.0f", p.FirstBatch, p.LastBatch, p.MeanFaults)
		}
		fmt.Println()
	}

	if *showBatches {
		fmt.Println("\nid  start_us  dur_us  raw  uniq  blocks  migKB  pf  evict  unmap_us  dma_us")
		for _, b := range res.Batches {
			fmt.Printf("%-3d %9.1f %7.1f %4d %5d %7d %6d %3d %6d %9.1f %7.1f\n",
				b.ID, float64(b.Start)/1000, float64(b.Duration())/1000,
				b.RawFaults, b.UniquePages, b.VABlocks, b.BytesMigrated>>10,
				b.PrefetchedPages, b.Evictions,
				float64(b.TUnmap)/1000, float64(b.TDMAMap)/1000)
		}
	}

	if metricsSrv != nil {
		if *metricsHold > 0 {
			fmt.Printf("metrics: holding endpoint for %s\n", *metricsHold)
			time.Sleep(*metricsHold)
		}
		metricsSrv.Close()
	}
}
