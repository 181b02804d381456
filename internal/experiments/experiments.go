// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulator. Each generator runs the paper's workload
// scenario (scaled per DESIGN.md §1), extracts the same statistic the
// paper plots, and records paper-vs-measured notes for EXPERIMENTS.md.
//
// Absolute numbers are not expected to match the authors' Titan V testbed;
// the *shape* claims (who wins, by what factor, where the crossovers and
// cost levels fall) are what each generator checks.
package experiments

import (
	"fmt"

	"guvm"
	"guvm/internal/mem"
	"guvm/internal/report"
	"guvm/internal/sim"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// Artifact is the output of one experiment: tables and/or figure series
// plus observations comparing against the paper.
type Artifact struct {
	ID     string
	Title  string
	Tables []*report.Table
	Series []*report.Series
	Notes  []string
}

// Notef appends a formatted observation.
func (a *Artifact) Notef(format string, args ...interface{}) {
	a.Notes = append(a.Notes, fmt.Sprintf(format, args...))
}

// Generator names one experiment. Run returns an error instead of
// panicking when a simulation fails, so one broken experiment never takes
// down a whole sweep.
type Generator struct {
	ID    string
	Title string
	Run   func() (*Artifact, error)
}

// All returns every experiment in paper order.
func All() []Generator {
	return []Generator{
		{"fig01", "Access latency: explicit vs UVM vs UVM oversubscribed", Fig01},
		{"fig03", "Vector-addition faults as a relative time series (Listing 1)", Fig03},
		{"fig04", "Vector-addition faults with real-time arrival timestamps", Fig04},
		{"fig05", "Prefetch instructions fill whole fault batches from one warp", Fig05},
		{"table2", "Per-SM source statistics in each batch", Table2},
		{"fig06", "Best fit of batch time vs data migrated", Fig06},
		{"fig07", "Share of batch time spent in data transfer (sgemm)", Fig07},
		{"fig08", "Batch sizes over time, raw vs deduplicated (stream, sgemm)", Fig08},
		{"fig09", "Performance vs fault batch size (sgemm)", Fig09},
		{"table3", "VABlock source statistics in a batch", Table3},
		{"fig10", "Batch time vs migration size, by VABlock count", Fig10},
		{"fig11", "HPGMG host-thread count vs CPU unmapping cost", Fig11},
		{"fig12", "sgemm under oversubscription and eviction", Fig12},
		{"fig13", "stream under oversubscription: eviction cost levels", Fig13},
		{"fig14", "sgemm with prefetching: batch profile and DMA outliers", Fig14},
		{"fig15", "dgemm with eviction + prefetching: combined profile", Fig15},
		{"table4", "Batch and kernel times with and without prefetching", Table4},
		{"fig16", "Gauss-Seidel case study (~16% oversubscription)", Fig16},
		{"fig17", "HPGMG case study (~25% oversubscription)", Fig17},
		// Profiler-measured batch-time attribution (not a paper figure).
		{"breakdown", "Batch-time breakdown by pipeline stage (profiler)", Breakdown},
		// Registered UVM architectures compared on one workload (not a
		// paper figure; the paper's driver is the host-driven entry).
		{"exp_architectures", "UVM architecture comparison (vecadd)", ArchitectureComparison},
		// Ablations of the §6 proposed improvements (not paper figures).
		{"abl-parallel", "Ablation: parallel VABlock servicing", AblParallel},
		{"abl-adaptive", "Ablation: duplicate-adaptive batch sizing", AblAdaptiveBatch},
		{"abl-asyncunmap", "Ablation: preemptive CPU unmapping", AblAsyncUnmap},
		{"abl-xblock", "Ablation: cross-VABlock prefetch scope", AblCrossBlockPrefetch},
		{"abl-eviction", "Ablation: eviction policy", AblEvictionPolicy},
		{"abl-hardware", "Ablation: GPU fault-generation constraints", AblHardware},
		// Extension beyond the paper's single-GPU scope.
		{"ext-multigpu", "Extension: multi-GPU interference via the shared driver", ExtMultiGPU},
	}
}

// Find returns the generator with the given ID.
func Find(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// policyOverride is the process-wide policy selection applied to every
// experiment's base profile (see SetPolicies). Individual experiments that
// ablate a policy dimension overwrite the corresponding field afterwards,
// so an override never silently invalidates an ablation's own sweep.
var policyOverride uvm.PolicySelection

// SetPolicies installs a named policy selection into the shared experiment
// profile; empty fields keep the per-experiment defaults. It validates the
// names against the registry so callers (paperfigs) can reject an unknown
// policy with the valid options before any experiment runs. A valid
// selection also resets the memoized Table 2/3 runs (ResetCache), so no
// generator reads a run made under the previous selection.
func SetPolicies(p uvm.PolicySelection) error {
	if err := p.Validate(); err != nil {
		return err
	}
	policyOverride = p
	ResetCache()
	return nil
}

// baseConfig is the shared experiment profile: the paper's 80-SM Titan-V
// GPU with a scaled memory capacity that individual experiments override.
// The invariant auditor rides along on every experiment run, so the whole
// evaluation doubles as a model self-check.
func baseConfig() guvm.SystemConfig {
	cfg := guvm.DefaultConfig()
	cfg.Driver.GPUMemBytes = 256 << 20
	cfg.Audit.Enabled = true
	cfg.Policies = policyOverride
	return cfg
}

// noPrefetch disables the prefetcher (and with it the 64K upgrade). It
// names the "off" policy, so it holds under a SetPolicies prefetch
// override.
func noPrefetch(cfg guvm.SystemConfig) guvm.SystemConfig {
	cfg.Policies.Prefetch = "off"
	return cfg
}

// run executes a workload under UVM demand paging.
func run(cfg guvm.SystemConfig, w workloads.Workload) (*guvm.Result, error) {
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", w.Name(), err)
	}
	res, err := s.Run(w)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", w.Name(), err)
	}
	return res, nil
}

// runExplicit executes the explicit-management baseline.
func runExplicit(cfg guvm.SystemConfig, w workloads.Workload) (*guvm.Result, error) {
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: explicit %s: %w", w.Name(), err)
	}
	res, err := s.RunExplicit(w)
	if err != nil {
		return nil, fmt.Errorf("experiments: explicit %s: %w", w.Name(), err)
	}
	return res, nil
}

// accessesOf counts page accesses a workload performs (for per-access
// latency metrics).
func accessesOf(w workloads.Workload, bases []mem.Addr) int {
	n := 0
	for _, ph := range w.Phases(bases) {
		k := ph.Kernel
		for b := 0; b < k.NumBlocks; b++ {
			for _, prog := range k.BlockProgram(b) {
				n += prog.Accesses()
			}
		}
	}
	return n
}

// ms converts virtual time to milliseconds.
func ms(t sim.Time) float64 { return t.Millis() }

// us converts virtual time to microseconds.
func us(t sim.Time) float64 { return t.Micros() }
