// Command bench is guvm's wall-clock benchmark. It times the simulator on
// the host CPU, not the modelled GPU: five workloads, each run in its own
// worker process (one at a time, GOMAXPROCS 2) as a closed loop with one
// client, with every op's outputs checked against an audited reference.
// A traced pass then charges host CPU to the repository's packages from
// a CPU profile, and probes time single layers' entry points.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh [-seconds 10] [-seed 11] [-out result.json]
//	bash bench/run.sh -quick
//	bash bench/run.sh -traced
//	bash bench/run.sh -workload stream-demand -trace 0
//	bash bench/run.sh -compare A.json[,A2.json...] B.json[,B2.json...]
//
// With -workload the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options selects what one invocation measures.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	// trace is 0 for the timed pass only, 1 for the per-layer pass only,
	// and -1 for both.
	trace int
	quick bool
}

// minTracedSeconds keeps the traced loop at 800 or more profile samples
// at the profiler's 100 Hz.
const minTracedSeconds = 8

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (then the last output line is the result JSON)")
	fs.Uint64Var(&o.seed, "seed", 11, "seed of the random-oversub input")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each worker's timed loop in seconds")
	fs.IntVar(&o.trace, "trace", -1, "0: timed pass only; 1: per-layer pass only; -1: both")
	traced := fs.Bool("traced", false, "run the per-layer pass alone (same as -trace 1)")
	fs.BoolVar(&o.quick, "quick", false, "small inputs and short loops, for tests and smoke runs")
	out := fs.String("out", "", "write the full results as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json[,...] B.json[,...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout)
	}
	if *traced {
		o.trace = 1
	}
	if o.quick && !flagSet(fs, "seconds") {
		o.seconds = 0 // each loop runs its minimum op count
	}
	if o.trace < -1 || o.trace > 1 || o.seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}

	rep := benchmark(o)
	writeText(stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	correct := rep.correct()
	if o.workload != "" {
		line, err := json.Marshal(resultLine(rep.Workloads[0], o.trace, correct))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !correct {
		return 1
	}
	return 0
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func workloadNames() []string {
	names := make([]string, len(catalog))
	for i, w := range catalog {
		names[i] = w.name
	}
	return names
}

// report is a whole invocation's results, the -out file.
type report struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadReport `json:"workloads"`
}

type provenance struct {
	Git        string  `json:"git"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Quick      bool    `json:"quick"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadReport struct {
	Name        string                 `json:"name"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	ErrorRate   float64                `json:"error_rate"`
	Errors      []string               `json:"errors,omitempty"`
	Fingerprint string                 `json:"fingerprint"`
	Model       map[string]float64     `json:"model,omitempty"`
	Timings     map[string]timing      `json:"timings"`
	Metrics     map[string]metricValue `json:"metrics"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// benchmark runs the timed pass over the selected workloads, then the
// per-layer pass (probes, then one traced worker per workload). Only one
// worker process runs at a time.
func benchmark(o options) *report {
	ws := catalog
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		ws = []workload{w}
	}
	rep := &report{Provenance: provenance{
		Git: gitHead(), Go: runtime.Version(), GOMAXPROCS: workerProcs(), NProc: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
	}}
	// The timed pass always runs: the per-layer pass needs its untraced
	// run time and its counts.
	timed := make([]*workerResult, len(ws))
	for i, w := range ws {
		wr := &workloadReport{Name: w.name, Timings: map[string]timing{}, Metrics: map[string]metricValue{}}
		rep.Workloads = append(rep.Workloads, wr)
		res, rss := wr.spawn(job{Kind: kindTimed, Workload: w.name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick})
		timed[i] = res
		wr.Fingerprint, wr.Model = res.Reference.Fingerprint, res.Reference.Model
		wr.Timings["run_s"] = newTiming(res.Wall)
		wr.Timings["raw_wall_s"] = newTiming(res.RawWall)
		wr.Timings["calib_s"] = newTiming(res.Calib)
		wr.Timings["setup_s"] = newTiming(res.SetupRounds)
		wr.Timings["cpu_s"] = newTiming(res.CPU)
		wr.Timings["alloc_mb"] = newTiming(res.AllocMB)
		if o.trace != 1 {
			wr.set(endToEnd, "setup_s", wr.Timings["setup_s"].Median)
			wr.set(endToEnd, "run_s", wr.Timings["run_s"].Median)
			wr.set(endToEnd, "cpu_s", wr.Timings["cpu_s"].Median)
			wr.set(endToEnd, "alloc_mb", wr.Timings["alloc_mb"].Median)
			wr.set(endToEnd, "max_rss_mb", rss)
		}
	}
	if o.trace != 0 {
		probeWR := &workloadReport{}
		probes, _ := probeWR.spawn(job{Kind: kindProbes, Quick: o.quick})
		tracedSeconds := o.seconds
		if !o.quick {
			tracedSeconds = max(tracedSeconds, minTracedSeconds)
		}
		for i, w := range ws {
			wr := rep.Workloads[i]
			wr.Attempted += probeWR.Attempted
			wr.Failed += probeWR.Failed
			wr.Errors = append(wr.Errors, probeWR.Errors...)
			tr, _ := wr.spawn(job{Kind: kindTraced, Workload: w.name, Seed: o.seed, Seconds: tracedSeconds, Quick: o.quick})
			if tr.Reference.Fingerprint != wr.Fingerprint {
				wr.fail(fmt.Errorf("traced worker fingerprint %s differs from timed %s", tr.Reference.Fingerprint, wr.Fingerprint))
			}
			wr.Timings["traced_run_s"] = newTiming(tr.Wall)
			wr.addPerLayer(timed[i], tr, probes.Probes)
		}
	}
	for _, wr := range rep.Workloads {
		wr.ErrorRate = ratio(float64(wr.Failed), float64(wr.Attempted))
	}
	return rep
}

// spawn runs a worker and folds its op accounting into the report. A
// worker that fails outright counts as one failed op and yields an empty
// result, so the report keeps its shape.
func (wr *workloadReport) spawn(j job) (*workerResult, float64) {
	res, rss, err := spawn(j)
	if err != nil {
		wr.Attempted++
		wr.fail(err)
		return &workerResult{}, rss
	}
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Errors = append(wr.Errors, res.Errors...)
	return res, rss
}

func (wr *workloadReport) fail(err error) {
	wr.Failed++
	wr.Errors = append(wr.Errors, err.Error())
}

func (wr *workloadReport) set(specs []metricSpec, name string, v float64) {
	s, ok := findSpec(specs, name)
	if !ok {
		panic("bench: metric " + name + " missing from the catalog")
	}
	wr.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
}

// addPerLayer derives the per-layer metrics from the timed worker t (its
// counts and untraced timings), the traced worker tr (its profile) and
// the probe results.
func (wr *workloadReport) addPerLayer(t, tr *workerResult, probeResults map[string]float64) {
	set := func(name string, v float64) { wr.set(perLayer, name, v) }
	c := t.Reference.Counts
	for _, m := range countMetrics {
		set(m.Name, c[m.Name])
	}
	run := median(t.Wall)
	set("sim.ns_per_event", ratio(run*1e9, c["sim.events"]))
	set("uvm.useful_fault_ratio", usefulFaultRatio(c))
	set("uvm.host_us_per_batch", ratio(run*1e6, c["uvm.batches"]))

	var att attribution
	if len(tr.Profile) > 0 {
		p, err := parseProfile(tr.Profile)
		if err != nil {
			wr.fail(err)
		} else {
			att = attribute(p)
		}
	}
	for _, l := range selfLayers {
		set(l+".self_frac", att.share(l))
	}
	for _, id := range experimentIDs {
		set("experiments."+id+"_s", median(t.GenElapsed[id]))
	}
	set("experiments.critical_s", median(t.Critical))
	set("experiments.busy_frac", median(t.Busy))
	set("runtime.gc_frac", att.share(bucketGC))
	set("runtime.other_frac", att.share(bucketOther))
	set("runtime.alloc_frac", ratio(float64(att.Alloc), float64(att.Total)))
	set("runtime.gc_cpu_frac", t.GCCPUFrac)
	set("runtime.gc_cycles", median(t.GCCycles))
	if tracedRun := median(tr.Wall); run > 0 && tracedRun > 0 {
		set("tracing.overhead_frac", tracedRun/run-1)
	} else {
		set("tracing.overhead_frac", 0)
	}
	set("tracing.samples", float64(att.Total))
	for _, p := range probes {
		set(p.name+"_ns", probeResults[p.name+"_ns"])
		set(p.name+"_allocs", probeResults[p.name+"_allocs"])
	}
}

// usefulFaultRatio is the share of fetched faults that were neither stale
// nor hardware duplicates, clamped to [0, 1] because a fault can be both.
func usefulFaultRatio(c map[string]float64) float64 {
	if c["uvm.faults"] == 0 {
		return 0
	}
	r := 1 - (c["uvm.stale_faults"]+c["gpu.dup_faults"])/c["uvm.faults"]
	return min(1, max(0, r))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resultLine is the one-line result of a single-workload invocation.
func resultLine(wr *workloadReport, trace int, correct bool) map[string]any {
	var names []metricSpec
	if trace != 1 {
		names = append(names, endToEnd...)
	}
	if trace != 0 {
		names = append(names, perLayer...)
	}
	metrics := make(map[string]metricValue, len(names))
	for _, s := range names {
		metrics[s.Name] = wr.Metrics[s.Name]
	}
	return map[string]any{
		"correct":   correct,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}

// writeText prints every workload's fingerprint, model outputs and
// metrics, one per line with its unit.
func writeText(w io.Writer, rep *report) {
	p := rep.Provenance
	fmt.Fprintf(w, "guvm bench  git %s  %s  GOMAXPROCS %d  nproc %d  seed %d  seconds %g  quick %v\n",
		p.Git, p.Go, p.GOMAXPROCS, p.NProc, p.Seed, p.Seconds, p.Quick)
	for _, wr := range rep.Workloads {
		wl, _ := findWorkload(wr.Name)
		fmt.Fprintf(w, "\n== %s: %s\n", wr.Name, wl.config)
		fmt.Fprintf(w, "   fingerprint %s  attempted %d  failed %d  error_rate %g fraction\n",
			wr.Fingerprint, wr.Attempted, wr.Failed, wr.ErrorRate)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "   error: %s\n", e)
		}
		if raw, c := wr.Timings["raw_wall_s"], wr.Timings["calib_s"]; raw.N > 0 {
			fmt.Fprintf(w, "   raw op wall time median %.6g s, calibration kernel median %.6g s (reference %g s)\n",
				raw.Median, c.Median, calibRef)
		}
		for _, k := range sortedKeys(wr.Model) {
			fmt.Fprintf(w, "   %-36s %.6g\n", k, wr.Model[k])
		}
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, s := range specs {
				v, ok := wr.Metrics[s.Name]
				if !ok {
					continue
				}
				line := fmt.Sprintf("   %-36s %-14.6g %s", s.Name, v.Value, v.Unit)
				if t, ok := wr.Timings[s.Name]; ok {
					line += fmt.Sprintf("  (q1 %.6g  q3 %.6g  n %d)", t.Q1, t.Q3, t.N)
				}
				fmt.Fprintln(w, line)
			}
		}
	}
}

func writeJSON(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitHead returns the commit checked out in the working directory, or
// "unknown" when it is not the root of a git checkout or git is missing.
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
