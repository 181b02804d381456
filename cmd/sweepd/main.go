// Command sweepd serves sweep-grid jobs over HTTP on top of a crash-safe
// result store. Clients POST JobSpecs to /sweep/jobs, stream NDJSON
// results from /sweep/jobs/{id}/results, and watch load-shedding state
// on /sweep/healthz; the obs endpoints (/metrics, /status, pprof) ride
// on the same mux.
//
// The daemon is built to be killed: every finished point is journaled
// before it is reported, so after a crash (SIGKILL included) a restart
// replays the write-ahead log, resumes incomplete jobs under their
// original IDs, and answers already-computed points from the store with
// bit-identical state digests. SIGTERM/SIGINT instead drain gracefully:
// in-flight points finish, queued jobs stay journaled for the next
// incarnation, and new submissions are shed with 503.
//
// The -inject-* flags enable deterministic service-layer fault injection
// (worker crashes, slow points) for chaos drills; they never perturb
// simulation results, only scheduling.
//
// Usage:
//
//	sweepd -addr 127.0.0.1:8080 -store /var/tmp/sweepd
//	curl -d '{"workload":"stream","mb":64,"caps_mb":[32,64]}' localhost:8080/sweep/jobs
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

	"guvm/internal/faultinject"
	"guvm/internal/obs"
	"guvm/internal/sweepd"
	"guvm/internal/sweepd/store"
	"guvm/internal/uvm"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address for the sweep API and obs endpoints")
		storeDir     = flag.String("store", "sweepd-store", "result store directory (journal + artifacts)")
		jobs         = flag.Int("jobs", runtime.GOMAXPROCS(0), "sweep-point worker pool width")
		queueCap     = flag.Int("queue", 8, "max jobs admitted but not yet running")
		maxPoints    = flag.Int("max-points", 4096, "max grid points in one job")
		breakerHigh  = flag.Int("breaker-high", 1024, "point backlog that opens the circuit breaker")
		breakerLow   = flag.Int("breaker-low", 256, "point backlog that closes it again")
		jobDeadline  = flag.Duration("job-deadline", 10*time.Minute, "default per-job wall-clock deadline")
		pointTimeout = flag.Duration("point-timeout", time.Minute, "per-point attempt timeout")
		retries      = flag.Int("retries", 3, "retries per point after the first attempt")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain at shutdown")
		injSeed      = flag.Uint64("inject-seed", 1, "fault-injection seed")
		injFailRate  = flag.Float64("inject-fail-rate", 0, "probability an attempt is killed (chaos testing)")
		injFailLimit = flag.Int("inject-fail-limit", 0, "stop killing a point after this many attempts (0 = no limit)")
		injSlowRate  = flag.Float64("inject-slow-rate", 0, "probability an attempt is delayed (chaos testing)")
		injSlowDelay = flag.Duration("inject-slow-delay", 0, "delay applied to slowed attempts")
		// Shared obs flag set: -trace-out records wall-clock job/point
		// spans; the metrics flags sample the service registry at publish
		// points. -metrics-addr serves a second, obs-only endpoint (the
		// primary -addr always carries /metrics too).
		ofl = obs.RegisterFlags(flag.CommandLine)
		// Shared policy flag block: daemon-wide defaults applied to every
		// JobSpec dimension a client leaves empty.
		pol = uvm.RegisterPolicyFlags(flag.CommandLine)
	)
	flag.Parse()

	if pol.HandleList(os.Stdout) {
		return
	}
	// Reject a bad default, with the valid options, at startup rather
	// than at job admission.
	if err := pol.Selection().Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(2)
	}

	var inj *faultinject.ServiceInjector
	if *injFailRate > 0 || *injSlowRate > 0 {
		var err error
		inj, err = faultinject.NewService(faultinject.ServiceConfig{
			Seed:           *injSeed,
			PointFailRate:  *injFailRate,
			PointFailLimit: *injFailLimit,
			SlowPointRate:  *injSlowRate,
			SlowPointDelay: *injSlowDelay,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "sweepd: fault injection armed (fail=%g limit=%d slow=%g/%v seed=%d)\n",
			*injFailRate, *injFailLimit, *injSlowRate, *injSlowDelay, *injSeed)
	}

	st, rec, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}
	defer st.Close()
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: journal recovery dropped %d torn byte(s)\n", rec.TruncatedBytes)
	}
	if rec.Points > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: recovered %d cached point(s) from %s\n", rec.Points, *storeDir)
	}

	// The registry always exists; the sampler and tracer only when their
	// flags ask (a daemon's time series and span list grow unboundedly, so
	// they stay opt-in).
	var ocfg obs.Config
	ofl.Apply(&ocfg)
	o := obs.New(ocfg)
	svc := sweepd.New(st, o, inj, sweepd.Config{
		Workers:         *jobs,
		QueueCap:        *queueCap,
		MaxPointsPerJob: *maxPoints,
		BreakerHigh:     *breakerHigh,
		BreakerLow:      *breakerLow,
		JobDeadline:     *jobDeadline,
		PointTimeout:    *pointTimeout,
		PointRetries:    *retries,
		Seed:            *injSeed,
		Defaults:        pol.Selection(),
	})
	n, errs := svc.Resume(rec.IncompleteJobs)
	if n > 0 || len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: resumed %d incomplete job(s) from the journal\n", n)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "sweepd: %v\n", e)
		}
	}
	svc.NoteRecovery(rec, n)
	if o.Tracer != nil {
		svc.SetTracer(o.Tracer, time.Now())
	}
	svc.Start()

	srv, err := obs.Serve(*addr, o, svc.Mount)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(1)
	}
	// The harness (and humans with -addr :0) scrape the bound address
	// from this line; keep its shape stable.
	fmt.Fprintf(os.Stderr, "sweepd: serving on %s\n", srv.Addr())
	if ofl.MetricsAddr != "" {
		msrv, err := obs.Serve(ofl.MetricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving on %s\n", msrv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintf(os.Stderr, "sweepd: draining (up to %v)\n", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Drain(dctx)
	// Shut the listener down after the drain so /healthz answers 503 (not
	// connection refused) while in-flight points finish.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
	}
	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: close store: %v\n", err)
	}
	// After the drain the runner is gone, so reading the tracer/sampler
	// here no longer races it. Artifact tails go to stderr like the rest
	// of the daemon's chatter.
	if err := ofl.WriteArtifacts(o.Tracer, o.Sampler, func(format string, a ...any) (int, error) {
		return fmt.Fprintf(os.Stderr, format, a...)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "sweepd: drained cleanly")
}
