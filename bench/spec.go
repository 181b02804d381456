package main

// metricSpec is one metric of the catalog. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in sync.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"alloc_mb", "MB", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.20},
}

// selfLayers are the guvm packages a CPU-profile sample can be charged
// to. A sample whose innermost guvm frame is in a package not listed
// here is charged to the next listed package further out on its stack.
var selfLayers = []string{
	"sim", "gpu", "uvm", "mem", "hostos", "interconnect", "gpumem",
	"workloads", "experiments", "trace", "faultinject", "guvm",
	"report", "stats", "analysis", "audit", "digest", "obs",
}

// experimentIDs are the paperfigs generators with a per-generator
// timing metric. They mirror experiments.All() at the time the catalog
// was fixed; a generator added later still counts toward
// experiments.critical_s and experiments.busy_frac.
var experimentIDs = []string{
	"fig01", "fig03", "fig04", "fig05", "table2", "fig06", "fig07",
	"fig08", "fig09", "table3", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "table4", "fig16", "fig17", "breakdown",
	"exp_architectures", "abl-parallel", "abl-adaptive",
	"abl-asyncunmap", "abl-xblock", "abl-eviction", "abl-hardware",
	"ext-multigpu",
}

// countMetrics are the exact per-layer counts read from a simulation's
// Stats() after an op (zero on paperfigs, which runs its simulations
// inside the experiments package).
var countMetrics = []metricSpec{
	{"sim.events", "count", "lower", 0},
	{"gpu.faults_emitted", "count", "lower", 0},
	{"gpu.dup_faults", "count", "lower", 0},
	{"gpu.utlb_full_stalls", "count", "lower", 0},
	{"gpu.throttle_stalls", "count", "lower", 0},
	{"uvm.batches", "count", "lower", 0},
	{"uvm.faults", "count", "lower", 0},
	{"uvm.stale_faults", "count", "lower", 0},
	{"uvm.evictions", "count", "lower", 0},
	{"uvm.prefetched_pages", "count", "lower", 0},
	{"hostos.unmap_calls", "count", "lower", 0},
	{"hostos.pages_unmapped", "count", "lower", 0},
	{"hostos.dma_pages_mapped", "count", "lower", 0},
	{"hostos.radix_nodes", "count", "lower", 0},
	{"interconnect.ops", "count", "lower", 0},
	{"interconnect.bytes_to_gpu", "bytes", "lower", 0},
	{"interconnect.bytes_to_host", "bytes", "lower", 0},
	{"gpumem.allocs", "count", "lower", 0},
	{"gpumem.frees", "count", "lower", 0},
	{"gpumem.peak_in_use", "count", "lower", 0},
}

// perLayer is the full per-layer catalog, reported by the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := append([]metricSpec(nil), countMetrics...)
	m = append(m,
		metricSpec{"sim.ns_per_event", "ns", "lower", 0},
		metricSpec{"uvm.useful_fault_ratio", "fraction", "higher", 0},
		metricSpec{"uvm.host_us_per_batch", "us", "lower", 0},
	)
	for _, l := range selfLayers {
		m = append(m, metricSpec{l + ".self_frac", "fraction", "lower", 0})
	}
	for _, id := range experimentIDs {
		m = append(m, metricSpec{"experiments." + id + "_s", "s", "lower", 0})
	}
	m = append(m,
		metricSpec{"experiments.critical_s", "s", "lower", 0},
		metricSpec{"experiments.busy_frac", "fraction", "higher", 0},
		metricSpec{"runtime.gc_frac", "fraction", "lower", 0},
		metricSpec{"runtime.other_frac", "fraction", "lower", 0},
		metricSpec{"runtime.alloc_frac", "fraction", "lower", 0},
		metricSpec{"runtime.gc_cpu_frac", "fraction", "lower", 0},
		metricSpec{"runtime.gc_cycles", "count", "lower", 0},
		metricSpec{"tracing.overhead_frac", "fraction", "lower", 0},
		metricSpec{"tracing.samples", "count", "higher", 0},
	)
	for _, p := range probes {
		m = append(m,
			metricSpec{p.name + "_ns", "ns", "lower", 0},
			metricSpec{p.name + "_allocs", "allocs/op", "lower", 0},
		)
	}
	return m
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
