package obs

// progress.go — the progress surface of the harness CLIs (paperfigs,
// uvmsweep). Both run independent units (experiments, grid points) on a
// worker pool and collect them in order on one goroutine; this is the
// one copy of what the shared flags make of that.

import (
	"fmt"
	"io"
	"time"

	"guvm/internal/sim"
)

// ProgressMetrics names a harness's two standard progress metrics: a
// gauge of the units in the run and a counter of the units collected.
type ProgressMetrics struct {
	Total, TotalHelp string
	Done, DoneHelp   string
}

// Progress is a harness run's progress surface, as the flags ask for it:
//   - -metrics-csv/-metrics-json/-metrics-addr publish the total gauge,
//     the done counter and any extra metrics, and sample them as units
//     are collected. A sample is keyed by the completed count, never by
//     wall time, so the series is deterministic at any -jobs value.
//   - -metrics-addr serves them, and the /status payload, live.
//   - -trace-out records one wall-clock span per unit, placed at
//     [collection-elapsed, collection] since the start. Placement is
//     approximate for a unit that finished while an earlier one was
//     still pending collection.
//
// Collect and Finish run on the collecting goroutine only.
type Progress struct {
	flags  *Flags
	log    io.Writer
	obs    *Observer // nil unless a metrics flag is set
	tracer *Tracer   // nil unless -trace-out is set
	srv    *Server
	start  time.Time
	done   int
}

// StartProgress builds the progress surface for a run of total units.
// extra, when non-nil, registers further metrics after the standard two;
// status renders the /status payload from the done count. The
// "serving on" line and the artifact lines go to log. The only error is
// the -metrics-addr listener's.
func (f *Flags) StartProgress(log io.Writer, total int, m ProgressMetrics,
	extra func(*Registry), status func(done int) any) (*Progress, error) {
	p := &Progress{flags: f, log: log, start: time.Now()}
	if f.TraceOut != "" {
		p.tracer = NewTracer()
		p.tracer.Lanes = map[int]string{}
	}
	if !f.SamplingRequested() {
		return p, nil
	}
	p.obs = New(Config{SampleInterval: f.SampleEvery()})
	p.obs.Registry.Gauge(m.Total, m.TotalHelp).Set(float64(total))
	p.obs.Registry.Func(m.Done, m.DoneHelp, func() float64 { return float64(p.done) })
	if extra != nil {
		extra(p.obs.Registry)
	}
	p.obs.SetStatusFunc(func() any { return status(p.done) })
	p.obs.Publish()
	if f.MetricsAddr != "" {
		srv, err := Serve(f.MetricsAddr, p.obs)
		if err != nil {
			return nil, err
		}
		p.srv = srv
		fmt.Fprintf(log, "metrics: serving on %s\n", srv.Addr())
	}
	return p, nil
}

// Collect records unit i, which ran for elapsed: its span (category cat,
// named name) on lane, labelled laneName; then the done count, a sample
// at every Interval-th unit and a publish. Units are collected in index
// order, so sample k is keyed by k completed units.
func (p *Progress) Collect(i, lane int, laneName, cat, name string, elapsed time.Duration) {
	if p.tracer != nil {
		end := sim.Time(time.Since(p.start).Nanoseconds())
		start := max(end-sim.Time(elapsed.Nanoseconds()), 0)
		p.tracer.Lanes[lane] = laneName
		p.tracer.Add(lane, cat, name, start, end-start, i)
	}
	p.done++
	if p.obs != nil {
		if i%p.obs.Sampler.Interval == 0 {
			p.obs.Sampler.Sample(sim.Time(p.done), i)
		}
		p.obs.Publish()
	}
}

// Done returns the number of units collected so far.
func (p *Progress) Done() int { return p.done }

// Finish writes the trace and sampled series the flags asked for, one
// line per file to log, and closes the live endpoint.
func (p *Progress) Finish() error {
	if p.srv != nil {
		defer p.srv.Close()
	}
	var sampler *Sampler
	if p.obs != nil {
		sampler = p.obs.Sampler
	}
	return p.flags.WriteArtifacts(p.tracer, sampler, func(format string, args ...any) (int, error) {
		return fmt.Fprintf(p.log, format, args...)
	})
}
