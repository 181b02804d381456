package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// workerEnv carries a worker's job, JSON-encoded, from the parent to the
// child process it re-executes itself as.
const workerEnv = "GUVM_BENCH_WORKER"

// Worker kinds.
const (
	kindTimed  = "timed"  // untraced timed loop plus set-up rounds
	kindTraced = "traced" // the same loop under the CPU profiler
	kindProbes = "probes" // the layer microbenchmarks
)

// job is what the parent asks of one worker process.
type job struct {
	Kind     string  `json:"kind"`
	Workload string  `json:"workload,omitempty"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
}

// workerResult is a worker's report, written to its stdout as JSON.
type workerResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Reference is the audited check op's summary; every later op of the
	// worker must reproduce its fingerprint.
	Reference opSummary `json:"reference"`

	// Per timed op. Times are in calibrated seconds (see calibrate.go);
	// RawWall and Calib keep each op's wall time and the calibration
	// kernel's time measured just before it.
	Wall     []float64 `json:"wall_s"`
	RawWall  []float64 `json:"raw_wall_s"`
	Calib    []float64 `json:"calib_s"`
	CPU      []float64 `json:"cpu_s"`
	AllocMB  []float64 `json:"alloc_mb"`
	GCCycles []float64 `json:"gc_cycles"`
	// GenElapsed, Critical and Busy are paperfigs' per-op generator
	// timings: each generator's calibrated wall time, the longest one, and
	// the workers' busy share.
	GenElapsed map[string][]float64 `json:"gen_elapsed_s,omitempty"`
	Critical   []float64            `json:"critical_s,omitempty"`
	Busy       []float64            `json:"busy_frac,omitempty"`

	// SetupRounds holds the calibrated per-set-up time of each round of
	// back-to-back set-ups (timed workers).
	SetupRounds []float64 `json:"setup_rounds_s,omitempty"`
	// GCCPUFrac is the runtime's GC share of available CPU over the timed
	// loop (timed workers).
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	// Profile is the gzipped CPU profile of the loop (traced workers).
	Profile []byte `json:"profile,omitempty"`
	// Probes holds the probe results (probe workers).
	Probes map[string]float64 `json:"probes,omitempty"`
}

func (r *workerResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// workerMain runs the job in this process and writes the result to
// stdout. It is the whole program of a worker process.
func workerMain(spec string) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 2
	}
	r, err := runJob(j)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	return 0
}

// Loop sizing. Every timed loop runs at least minOps ops so a run always
// has a median; set-up is timed in setupRounds rounds of setupBatch
// back-to-back set-ups, because a single set-up takes microseconds.
const (
	minOps      = 3
	setupRounds = 31
	setupBatch  = 100
)

func runJob(j job) (*workerResult, error) {
	if j.Kind == kindProbes {
		return &workerResult{Probes: runProbes(j.Quick)}, nil
	}
	w, ok := findWorkload(j.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", j.Workload)
	}
	// The harness's own work (checking outputs, forcing collections,
	// calibrating) runs under this label so the profile attribution can
	// leave it out.
	harness := pprof.WithLabels(context.Background(), pprof.Labels("bench", "harness"))
	pprof.SetGoroutineLabels(harness)

	r := &workerResult{}
	cal := &calibrator{}
	// One audited check op sets the reference; one warm-up op follows.
	s, err := measureOp(harness, w, j, true, cal, 1, r)
	if err != nil {
		return r, nil
	}
	s, _ = measureOp(harness, w, j, false, cal, calibReps(s.wall), r)

	var prof bytes.Buffer
	if j.Kind == kindTraced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	gc0 := readRuntime()
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < j.Seconds; n++ {
		s, err = measureOp(harness, w, j, false, cal, calibReps(s.wall), r)
		if err != nil {
			continue
		}
		scale := calibRef / s.calib
		r.Wall = append(r.Wall, s.wall*scale)
		r.RawWall = append(r.RawWall, s.wall)
		r.Calib = append(r.Calib, s.calib)
		r.CPU = append(r.CPU, s.cpu*scale)
		r.AllocMB = append(r.AllocMB, s.allocBytes/1e6)
		r.GCCycles = append(r.GCCycles, s.gcCycles)
		if s.sum.GenElapsed != nil {
			if r.GenElapsed == nil {
				r.GenElapsed = map[string][]float64{}
			}
			var total, longest float64
			for id, e := range s.sum.GenElapsed {
				r.GenElapsed[id] = append(r.GenElapsed[id], e*scale)
				total += e
				longest = max(longest, e)
			}
			r.Critical = append(r.Critical, longest*scale)
			r.Busy = append(r.Busy, total/(figsJobs*s.wall))
		}
	}
	runtime.GC()
	gc1 := readRuntime()
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		r.GCCPUFrac = (gc1.gcCPU - gc0.gcCPU) / d
	}
	if j.Kind == kindTraced {
		pprof.StopCPUProfile()
		r.Profile = prof.Bytes()
		return r, nil
	}

	rounds, batch := setupRounds, setupBatch
	if j.Quick {
		rounds, batch = 3, 5
	}
	for i := 0; i < rounds; i++ {
		runtime.GC()
		scale := calibRef / cal.measure(1)
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if _, err := w.prepare(j.Seed, j.Quick, false); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		r.SetupRounds = append(r.SetupRounds, time.Since(t0).Seconds()/float64(batch)*scale)
	}
	return r, nil
}

// calibShare is the share of an op's time spent calibrating before it:
// the kernel is repeated (up to 9 times) before long ops.
const calibShare = 0.05

// calibReps is the kernel repetition count before an op that lasts about
// as long as the previous one, which took wall seconds.
func calibReps(wall float64) int {
	return min(9, max(1, int(calibShare*wall/calibRef)))
}

// opStats is one op's raw measurements.
type opStats struct {
	wall, cpu            float64
	calib                float64
	allocBytes, gcCycles float64
	sum                  opSummary
}

// measureOp runs one op after a forced collection and a calibration,
// checks its outputs and records the outcome in r. The first op of a
// worker (audit set) becomes the reference; every later op must match its
// fingerprint.
func measureOp(harness context.Context, w workload, j job, audit bool, cal *calibrator, reps int, r *workerResult) (opStats, error) {
	r.Attempted++
	runtime.GC()
	var s opStats
	s.calib = cal.measure(reps)
	var o op
	var err error
	m0, c0 := readRuntime(), cpuSeconds()
	pprof.Do(harness, pprof.Labels("bench", "op"), func(context.Context) {
		start := time.Now()
		o, err = w.prepare(j.Seed, j.Quick, audit)
		if err == nil {
			err = o.run()
		}
		s.wall = time.Since(start).Seconds()
	})
	c1, m1 := cpuSeconds(), readRuntime()
	s.cpu = c1 - c0
	s.allocBytes = m1.allocBytes - m0.allocBytes
	s.gcCycles = m1.gcCycles - m0.gcCycles
	if err == nil {
		s.sum, err = o.summary()
	}
	switch {
	case err != nil:
	case audit:
		r.Reference = s.sum
	case s.sum.Fingerprint != r.Reference.Fingerprint:
		err = fmt.Errorf("fingerprint %s differs from the audited reference %s", s.sum.Fingerprint, r.Reference.Fingerprint)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s op %d: %w", w.name, r.Attempted, err))
	}
	return s, err
}

type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// cpuSeconds is this process's user plus system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// workerProcs is the GOMAXPROCS of every worker: two, the core count the
// baseline machine has, capped at this machine's.
func workerProcs() int { return min(2, runtime.NumCPU()) }

// spawn runs one job in a fresh child process and waits for it. It
// returns the child's result and its peak resident set in MB.
func spawn(j job) (*workerResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return nil, 0, err
	}
	// A worker that hangs is killed well inside the caller's budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*j.Seconds+120)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+string(spec), fmt.Sprintf("GOMAXPROCS=%d", workerProcs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rssMB float64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		}
	}
	if runErr != nil {
		return nil, rssMB, fmt.Errorf("%s worker for %q: %w", j.Kind, j.Workload, runErr)
	}
	var r workerResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, rssMB, fmt.Errorf("%s worker for %q: reading result: %w", j.Kind, j.Workload, err)
	}
	return &r, rssMB, nil
}
