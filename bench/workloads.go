package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"guvm"
	"guvm/internal/experiments"
	"guvm/internal/workloads"
)

// workload is one benchmark input set. prepare does an op's set-up (the
// part setup_s times) and returns the op, whose run is the timed call
// into the simulator.
type workload struct {
	name string
	why  string
	// config names the full-size configuration in the text report.
	config  string
	prepare func(seed uint64, quick, audit bool) (op, error)
}

// op is one timed operation. run is the measured call; summary digests
// its outputs afterwards, outside the timed region.
type op interface {
	run() error
	summary() (opSummary, error)
}

// opSummary is what an op's outputs are checked and reported by.
type opSummary struct {
	Fingerprint string
	// Model holds simulated (not host) results, printed for the record.
	Model map[string]float64
	// Counts holds exact per-layer counters from the layers' Stats().
	Counts map[string]float64
	// GenElapsed holds each paperfigs generator's wall time in seconds.
	GenElapsed map[string]float64
}

var catalog = []workload{
	{
		name:   "stream-demand",
		why:    "streaming triad that fits in GPU memory with prefetch off: pure demand paging through the engine, GPU fault path and host-driven driver; prefetch and eviction bypassed",
		config: "workloads.NewStream(256<<20, 24), GPUMemBytes 1 GiB, PrefetchEnabled false, host-driven",
		prepare: simPrepare(func(quick bool) guvm.SystemConfig {
			cfg := guvm.DefaultConfig()
			cfg.Driver.GPUMemBytes = 1 << 30
			cfg.Driver.PrefetchEnabled = false
			return cfg
		}, streamInput),
	},
	{
		name:   "stream-access-counter",
		why:    "the same streaming input through the access-counter stage graph (counter gate, remote mapping): shared stage code that helps host-driven but costs another architecture shows here",
		config: "as stream-demand, Policies.Architecture \"access-counter\"",
		prepare: simPrepare(func(quick bool) guvm.SystemConfig {
			cfg := guvm.DefaultConfig()
			cfg.Driver.GPUMemBytes = 1 << 30
			cfg.Driver.PrefetchEnabled = false
			cfg.Policies.Architecture = "access-counter"
			return cfg
		}, streamInput),
	},
	{
		name:   "random-oversub",
		why:    "seeded random reads over twice the GPU memory with tree prefetch and LRU: density prefetch, eviction scans and dedup dominate, the residency work stream-demand bypasses",
		config: "workloads.NewRandom(512<<20, 160, 300, seed), default 256 MiB GPU, tree prefetch, LRU",
		prepare: simPrepare(func(quick bool) guvm.SystemConfig {
			cfg := guvm.DefaultConfig()
			if quick {
				cfg.Driver.GPUMemBytes = 16 << 20
			}
			return cfg
		}, func(seed uint64, quick bool) workloads.Workload {
			if quick {
				return workloads.NewRandom(32<<20, 40, 100, seed)
			}
			return workloads.NewRandom(512<<20, 160, 300, seed)
		}),
	},
	{
		name:   "hpgmg-multigrid",
		why:    "multigrid V-cycles with host phases: the most engine events per op for few faults, so the calendar-queue engine and allocation carry the cost",
		config: "workloads.NewHPGMG(256<<20, 32), GPUMemBytes 1 GiB, default prefetch",
		prepare: simPrepare(func(quick bool) guvm.SystemConfig {
			cfg := guvm.DefaultConfig()
			cfg.Driver.GPUMemBytes = 1 << 30
			return cfg
		}, func(_ uint64, quick bool) workloads.Workload {
			if quick {
				return workloads.NewHPGMG(16<<20, 32)
			}
			return workloads.NewHPGMG(256<<20, 32)
		}),
	},
	{
		name:    "paperfigs",
		why:     "full regeneration of every paper figure on two workers: the user-facing job, and the only one that runs the experiments harness, multi-GPU path and all three architectures",
		config:  "experiments.ResetCache(), then all experiments.All() generators via RunParallel(ctx, gens, 2, ...)",
		prepare: figsPrepare,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range catalog {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func streamInput(_ uint64, quick bool) workloads.Workload {
	if quick {
		return workloads.NewStream(8<<20, 24)
	}
	return workloads.NewStream(256<<20, 24)
}

// simPrepare builds the set-up of a single-simulation workload:
// NewSimulator plus the workload constructor.
func simPrepare(cfgFor func(quick bool) guvm.SystemConfig, input func(seed uint64, quick bool) workloads.Workload) func(uint64, bool, bool) (op, error) {
	return func(seed uint64, quick, audit bool) (op, error) {
		cfg := cfgFor(quick)
		cfg.Audit.Enabled = audit
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		return &simOp{sim: s, w: input(seed, quick)}, nil
	}
}

type simOp struct {
	sim *guvm.Simulator
	w   workloads.Workload
	res *guvm.Result
}

func (o *simOp) run() error {
	res, err := o.sim.Run(o.w)
	o.res = res
	return err
}

// summary fingerprints the run: an FNV-64 hash over the kernel and total
// virtual times, every batch record and the final state digests of the
// driver, device, host VM and link.
func (o *simOp) summary() (opSummary, error) {
	r, s := o.res, o.sim
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d\n", r.KernelTime, r.TotalTime)
	for i := range r.Batches {
		fmt.Fprintf(h, "%v\n", r.Batches[i])
	}
	fmt.Fprintf(h, "%x %x %x %x\n", s.Driver.Digest(), s.Device.Digest(), s.HostVM.Digest(), s.Driver.Link().Digest())

	d, g, hv, l, pm := r.DriverStats, r.DeviceStats, r.HostStats, r.LinkStats, s.Driver.MemoryStats()
	return opSummary{
		Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
		Model: map[string]float64{
			"model.kernel_ms": r.KernelTime.Millis(),
			"model.total_ms":  r.TotalTime.Millis(),
			"model.batches":   float64(len(r.Batches)),
		},
		Counts: map[string]float64{
			"sim.events":                 float64(s.Engine.Executed()),
			"gpu.faults_emitted":         float64(g.FaultsEmitted),
			"gpu.dup_faults":             float64(g.DupFaults),
			"gpu.utlb_full_stalls":       float64(g.UTLBFullStalls),
			"gpu.throttle_stalls":        float64(g.ThrottleStalls),
			"uvm.batches":                float64(d.Batches),
			"uvm.faults":                 float64(d.TotalFaults),
			"uvm.stale_faults":           float64(d.StaleFaults),
			"uvm.evictions":              float64(d.Evictions),
			"uvm.prefetched_pages":       float64(d.PrefetchedPages),
			"hostos.unmap_calls":         float64(hv.UnmapCalls),
			"hostos.pages_unmapped":      float64(hv.PagesUnmapped),
			"hostos.dma_pages_mapped":    float64(hv.DMAPagesMapped),
			"hostos.radix_nodes":         float64(hv.RadixNodes),
			"interconnect.ops":           float64(l.Ops),
			"interconnect.bytes_to_gpu":  float64(l.BytesToGPU),
			"interconnect.bytes_to_host": float64(l.BytesToHost),
			"gpumem.allocs":              float64(pm.Allocs),
			"gpumem.frees":               float64(pm.Frees),
			"gpumem.peak_in_use":         float64(pm.PeakInUse),
		},
	}, nil
}

// quickFigs are the generators the -quick paperfigs op runs: the cheapest
// figure and the multi-GPU path.
var quickFigs = map[string]bool{"fig03": true, "ext-multigpu": true}

// figsPrepare is the paperfigs set-up: drop the cross-generator caches and
// list the generators.
func figsPrepare(_ uint64, quick, _ bool) (op, error) {
	experiments.ResetCache()
	gens := experiments.All()
	if quick {
		kept := gens[:0]
		for _, g := range gens {
			if quickFigs[g.ID] {
				kept = append(kept, g)
			}
		}
		gens = kept
	}
	return &figsOp{gens: gens}, nil
}

// figsJobs is the paperfigs worker count: one per core of the two-core
// machine the baseline was taken on.
const figsJobs = 2

type figsOp struct {
	gens    []experiments.Generator
	results []experiments.RunResult
}

func (o *figsOp) run() error {
	return experiments.RunParallel(context.Background(), o.gens, figsJobs, func(r experiments.RunResult) {
		o.results = append(o.results, r)
	})
}

// summary checks every artifact (no generator error, non-empty notes) and
// fingerprints their tables, series and notes.
func (o *figsOp) summary() (opSummary, error) {
	h := fnv.New64a()
	elapsed := make(map[string]float64, len(o.results))
	var errs []error
	for _, r := range o.results {
		elapsed[r.Gen.ID] = r.Elapsed.Seconds()
		switch {
		case r.Err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", r.Gen.ID, r.Err))
			continue
		case r.Artifact == nil || len(r.Artifact.Notes) == 0:
			errs = append(errs, fmt.Errorf("%s: artifact has no notes", r.Gen.ID))
			continue
		}
		writeArtifact(h, r.Artifact)
	}
	if len(o.results) != len(o.gens) {
		errs = append(errs, fmt.Errorf("collected %d of %d generators", len(o.results), len(o.gens)))
	}
	return opSummary{
		Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
		Model:       map[string]float64{"model.artifacts": float64(len(o.results))},
		GenElapsed:  elapsed,
	}, errors.Join(errs...)
}

func writeArtifact(w io.Writer, a *experiments.Artifact) {
	fmt.Fprintf(w, "%s %q\n", a.ID, a.Title)
	for _, t := range a.Tables {
		fmt.Fprintf(w, "%v\n", *t)
	}
	for _, s := range a.Series {
		fmt.Fprintf(w, "%v\n", *s)
	}
	for _, n := range a.Notes {
		fmt.Fprintf(w, "%q\n", n)
	}
}
