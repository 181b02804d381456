// Command uvmsweep runs a driver-policy parameter grid over one workload
// and emits a CSV of outcomes — the bulk-experimentation companion to
// uvmsim. Sweeps cover batch size, prefetching, capacity (oversubscription
// ratio), and eviction policy. The grid flags, their expansion and the
// point runner live in internal/sweep, which the sweep daemon shares.
//
// Grid points run on a worker pool (-jobs, default GOMAXPROCS); each
// point drives its own simulation engine and rows are emitted in grid
// order, so the CSV is byte-identical at any -jobs value.
//
// Usage:
//
//	uvmsweep -workload gauss-seidel -n 3072 > sweep.csv
//	uvmsweep -workload stream -mb 16 -batches 128,256,1024 -caps 24,32,64 -jobs 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"guvm/internal/experiments"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/sweep"
	"guvm/internal/uvm"
)

func main() {
	var (
		// Sweep grid flag block: workload knobs, -batches/-caps, comma
		// lists per policy registry dimension, and -list-policies.
		sf      = sweep.RegisterFlags(flag.CommandLine)
		auditOn = flag.Bool("audit", false, "run the invariant auditor on every sweep point; a violation names the failing point and exits non-zero")
		jobs    = flag.Int("jobs", runtime.GOMAXPROCS(0), "number of sweep points to run concurrently")
		// Shared obs flag set: -trace-out records one wall-clock span per
		// grid point; the metrics flags publish/sample sweep progress.
		ofl = obs.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	// Graceful drain: SIGINT/SIGTERM stops feeding new grid points to the
	// pool; in-flight points finish and their rows are still emitted, so
	// the partial CSV is always a clean prefix of the full sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if sf.List {
		uvm.WritePolicies(os.Stdout)
		return
	}

	// Expand the grid up front: Points validates the workload, every
	// batch size and capacity, and every policy name against the registry
	// (an unknown name is rejected with the valid options) before any
	// simulation runs. The independent points then fan out on the pool.
	spec, err := sf.Spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", err)
		os.Exit(2)
	}
	grid, err := spec.Points(uvm.PolicySelection{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", err)
		os.Exit(2)
	}

	// Opt-in live progress endpoint and sampled progress series. Counters
	// advance only in the ordered collect callback (main goroutine), so
	// publishing never races the worker pool and the CSV stays
	// byte-identical at any -jobs value. The sampled series is keyed by
	// completed-point count (not wall time), so -metrics-csv/-metrics-json
	// are deterministic too.
	var prog *obs.Observer
	done := 0
	faults := 0
	if ofl.SamplingRequested() {
		prog = obs.New(obs.Config{SampleInterval: ofl.SampleEvery()})
		total := prog.Registry.Gauge("guvm_sweep_points_total", "Grid points in this sweep")
		total.Set(float64(len(grid)))
		prog.Registry.Func("guvm_sweep_points_done_total", "Grid points completed",
			func() float64 { return float64(done) })
		prog.Registry.Func("guvm_sweep_faults_total", "Faults across completed grid points",
			func() float64 { return float64(faults) })
		prog.SetStatusFunc(func() any {
			return map[string]any{"workload": spec.Workload, "points": len(grid), "done": done}
		})
		prog.Publish()
		if ofl.MetricsAddr != "" {
			srv, err := obs.Serve(ofl.MetricsAddr, prog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", err)
				os.Exit(2)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "metrics: serving on %s\n", srv.Addr())
		}
	}
	// Optional harness trace: one wall-clock span per grid point on a
	// single lane, placed at [collection-elapsed, collection] relative to
	// program start (approximate for points that finished while an earlier
	// one was pending collection).
	var harness *obs.Tracer
	progStart := time.Now()
	if ofl.TraceOut != "" {
		harness = obs.NewTracer()
		harness.Lanes = map[int]string{1: "sweep points"}
	}

	type outcome struct {
		row     string
		faults  int
		elapsed time.Duration
		err     error
	}
	fmt.Println(sweep.CSVHeader)
	runErr := experiments.ForEachOrdered(ctx, len(grid), *jobs, func(i int) outcome {
		pointStart := time.Now()
		r, _, err := sweep.Run(grid[i], *auditOn)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{row: sweep.CSVRow(grid[i], r), faults: r.Faults, elapsed: time.Since(pointStart)}
	}, func(i int, o outcome) {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", o.err)
			os.Exit(1)
		}
		fmt.Println(o.row)
		done++
		faults += o.faults
		if harness != nil {
			end := sim.Time(time.Since(progStart).Nanoseconds())
			start := end - sim.Time(o.elapsed.Nanoseconds())
			if start < 0 {
				start = 0
			}
			p := grid[i]
			harness.Add(1, "point", fmt.Sprintf("bs=%d cap=%d %s/%s/%s/%s",
				p.BatchSize, p.CapMB, p.Prefetch, p.Evict, p.Sizing, p.Arch),
				start, end-start, i)
		}
		if prog != nil {
			if i%prog.Sampler.Interval == 0 {
				prog.Sampler.Sample(sim.Time(done), i)
			}
			prog.Publish()
		}
	})
	// Artifact tails go to stderr: stdout is the sweep CSV.
	logf := func(format string, a ...any) (int, error) {
		return fmt.Fprintf(os.Stderr, format, a...)
	}
	var sampler *obs.Sampler
	if prog != nil {
		sampler = prog.Sampler
	}
	if err := ofl.WriteArtifacts(harness, sampler, logf); err != nil {
		fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "uvmsweep: interrupted (%v): emitted %d of %d grid points\n",
			runErr, done, len(grid))
		os.Exit(130)
	}
}
