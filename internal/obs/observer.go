package obs

import (
	"encoding/json"
	"sync/atomic"

	"guvm/internal/gpu"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// Config enables and tunes the observability layer. The zero value
// attaches nothing and leaves the simulation entirely uninstrumented.
type Config struct {
	// Trace collects sim-time phase spans for Chrome trace export.
	Trace bool
	// EngineEvents additionally marks every engine dispatch in the trace
	// (capped at Tracer.EngineEventCap; requires Trace). A GPU completion
	// group, which completes a run of same-instant accesses, is one
	// dispatch.
	EngineEvents bool
	// SampleInterval samples the metrics registry every N batches into
	// the time series (0 disables sampling).
	SampleInterval int
	// Profile attaches the fault-lifecycle attribution profiler
	// (profiler.go): per-stage latency histograms, batch critical paths,
	// and per-VABlock heat accounting. Combines with Trace (block-step
	// spans) and SampleInterval (stage totals in the time series).
	Profile bool
}

// Active reports whether an observer should be attached at all.
func (c Config) Active() bool { return c.Trace || c.SampleInterval > 0 || c.Profile }

// Observer bundles one simulation's observability state: the span tracer,
// the metrics registry, and the sim-time sampler. All observation happens
// at batch boundaries on the simulation goroutine; HTTP handlers read
// only atomically published renderings.
//
// A nil *Observer is valid and observes nothing.
type Observer struct {
	cfg Config

	Tracer   *Tracer
	Registry *Registry
	Sampler  *Sampler
	// Profiler is the fault-lifecycle attribution profiler (nil unless
	// Config.Profile); guvm registers it as a driver observer ahead of
	// the Observer itself.
	Profiler *Profiler

	batchDur *Metric // histogram of batch durations in microseconds

	// statusFn builds the /status payload; evaluated at publish points on
	// the simulation goroutine. statusJSON holds its last rendering.
	statusFn   func() any
	statusJSON atomic.Pointer[[]byte]
}

// New builds an observer for one simulation.
func New(cfg Config) *Observer {
	o := &Observer{cfg: cfg, Registry: NewRegistry()}
	if cfg.Trace {
		o.Tracer = NewTracer()
	}
	if cfg.SampleInterval > 0 {
		o.Sampler = NewSampler(o.Registry, cfg.SampleInterval)
	}
	if cfg.Profile {
		o.Profiler = NewProfiler(o.Tracer, o.Registry)
	}
	o.batchDur = o.Registry.Histogram("guvm_batch_duration_us",
		"Fault-batch service duration in virtual microseconds",
		[]float64{50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000})
	return o
}

// Config returns the observer's configuration (zero value on nil).
func (o *Observer) Config() Config {
	if o == nil {
		return Config{}
	}
	return o.cfg
}

// SetStatusFunc registers the /status payload builder, evaluated at every
// publish point on the simulation goroutine.
func (o *Observer) SetStatusFunc(fn func() any) {
	if o != nil {
		o.statusFn = fn
	}
}

// EndBatch observes one completed batch (uvm.Observer): derive its
// spans, feed the batch histogram, and sample/publish on the configured
// interval. Called on the simulation goroutine at the driver's batch end.
func (o *Observer) EndBatch(id int, rec *trace.BatchRecord, _ []gpu.Fault) {
	if o == nil {
		return
	}
	o.Tracer.AddBatch(rec)
	o.batchDur.Observe(rec.Duration().Micros())
	if o.Sampler != nil && id%o.Sampler.Interval == 0 {
		o.Sampler.Sample(rec.End, id)
		o.Publish()
	}
}

// OnKernel records one completed GPU kernel phase in the trace.
func (o *Observer) OnKernel(phase int, start, dur sim.Time) {
	if o == nil {
		return
	}
	o.Tracer.AddKernel(phase, start, dur)
}

// NoteEvent marks one engine dispatch in the trace (opt-in, capped).
func (o *Observer) NoteEvent(at sim.Time) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.AddInstant("dispatch", at)
}

// Publish renders the registry and status payload for concurrent readers
// (the live HTTP endpoints). Simulation goroutine only.
func (o *Observer) Publish() {
	if o == nil {
		return
	}
	o.Registry.Publish()
	if o.statusFn != nil {
		if b, err := json.Marshal(o.statusFn()); err == nil {
			o.statusJSON.Store(&b)
		}
	}
}

// Status returns the last published /status JSON (nil if never
// published). Safe from any goroutine.
func (o *Observer) Status() []byte {
	if o == nil {
		return nil
	}
	if p := o.statusJSON.Load(); p != nil {
		return *p
	}
	return nil
}
