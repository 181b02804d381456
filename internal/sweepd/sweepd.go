// Package sweepd is a long-running, crash-safe sweep service: clients
// submit sweep-grid jobs over HTTP, points fan out across the
// experiments worker pool, and per-point results stream back as they
// complete. Around that core sits a robustness envelope:
//
//   - per-job wall-clock deadlines and per-point timeouts, with bounded
//     retry under deterministic exponential backoff + jitter;
//   - admission control and load shedding — a bounded job queue and a
//     point-backlog circuit breaker, surfaced as typed errors that the
//     HTTP layer maps to 429/503;
//   - a crash-safe content-addressed result store (see the store
//     subpackage): every finished point is journaled before the job
//     advances, so a SIGKILL loses at most in-flight points, and a
//     restarted service replays the journal, resumes incomplete jobs,
//     and serves already-computed points from cache bit-identically;
//   - graceful drain on SIGTERM: in-flight points finish, queued work
//     is journaled for the next incarnation, nothing new is admitted.
package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"guvm/internal/experiments"
	"guvm/internal/faultinject"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/sweep"
	"guvm/internal/sweepd/store"
	"guvm/internal/uvm"
)

// Config tunes the service's robustness envelope. The zero value of any
// field falls back to the DefaultConfig value.
type Config struct {
	// Workers is the sweep-point worker pool width.
	Workers int
	// QueueCap bounds jobs admitted but not yet running; Submit returns
	// ErrQueueFull beyond it.
	QueueCap int
	// MaxPointsPerJob bounds one job's expanded grid.
	MaxPointsPerJob int
	// BreakerHigh/BreakerLow are the point-backlog watermarks: the
	// circuit breaker opens at >= BreakerHigh outstanding points and
	// closes again only once the backlog drains to <= BreakerLow.
	BreakerHigh int
	BreakerLow  int
	// JobDeadline bounds a job's wall-clock run unless the spec carries
	// its own deadline_ms.
	JobDeadline time.Duration
	// PointTimeout bounds one simulation attempt; a timed-out attempt is
	// abandoned and retried.
	PointTimeout time.Duration
	// PointRetries is the number of retries after the first attempt.
	PointRetries int
	// RetryBase/RetryMax shape the exponential backoff between attempts.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed keys the deterministic backoff jitter.
	Seed uint64
	// Defaults names the policies applied to every spec dimension a
	// client leaves empty; empty names keep the sweep defaults.
	Defaults uvm.PolicySelection
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Workers:         runtime.GOMAXPROCS(0),
		QueueCap:        8,
		MaxPointsPerJob: 4096,
		BreakerHigh:     1024,
		BreakerLow:      256,
		JobDeadline:     10 * time.Minute,
		PointTimeout:    time.Minute,
		PointRetries:    3,
		RetryBase:       50 * time.Millisecond,
		RetryMax:        2 * time.Second,
		Seed:            1,
	}
}

func (c *Config) sanitize() {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.MaxPointsPerJob <= 0 {
		c.MaxPointsPerJob = d.MaxPointsPerJob
	}
	if c.BreakerHigh <= 0 {
		c.BreakerHigh = d.BreakerHigh
	}
	if c.BreakerLow <= 0 || c.BreakerLow >= c.BreakerHigh {
		c.BreakerLow = c.BreakerHigh / 4
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = d.JobDeadline
	}
	if c.PointTimeout <= 0 {
		c.PointTimeout = d.PointTimeout
	}
	if c.PointRetries < 0 {
		c.PointRetries = d.PointRetries
	}
	if c.RetryBase <= 0 {
		c.RetryBase = d.RetryBase
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = d.RetryMax
	}
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobInterrupted JobState = "interrupted" // drained mid-run; resumable after restart
)

// Job is the service-internal job record. All fields are guarded by
// Service.mu after construction.
type Job struct {
	id        string
	spec      JobSpec
	points    []sweep.Point
	state     JobState
	errMsg    string
	rows      []PointRow
	cached    int
	failed    int
	recovered bool
	created   time.Time
	started   time.Time
	finished  time.Time
	// changed is closed and replaced on every row append and state
	// change; result streamers wait on it instead of polling.
	changed chan struct{}
}

// notifyLocked wakes every streamer waiting for this job to advance.
// Callers hold Service.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// JobView is the client-facing job snapshot.
type JobView struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Points    int      `json:"points"`
	Completed int      `json:"completed"`
	Cached    int      `json:"cached"`
	Failed    int      `json:"failed"`
	Recovered bool     `json:"recovered,omitempty"`
	Error     string   `json:"error,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// Health is the load-shedding state exposed by /sweep/healthz.
type Health struct {
	Draining      bool `json:"draining"`
	BreakerOpen   bool `json:"breaker_open"`
	QueueDepth    int  `json:"queue_depth"`
	BacklogPoints int  `json:"backlog_points"`
	StorePoints   int  `json:"store_points"`
}

// Service is the sweep daemon core. One runner goroutine executes jobs
// in admission order; each job's points fan out on the experiments
// worker pool and collect in grid order, so a job's result stream is
// deterministic at any worker count.
type Service struct {
	cfg Config
	st  *store.Store
	o   *obs.Observer
	inj *faultinject.ServiceInjector

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wake       chan struct{}
	runnerWG   sync.WaitGroup
	// bg tracks attempt goroutines, including ones abandoned by a point
	// timeout; Drain waits for them (bounded by its context) so no
	// simulation outlives the drain unnoticed.
	bg sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job
	pending  []*Job
	backlog  int // points admitted but not yet collected
	breaker  bool
	draining bool
	started  bool
	nextID   int

	mJobsAccepted  *obs.Metric
	mJobsShed      *obs.Metric
	mJobsDone      *obs.Metric
	mJobsFailed    *obs.Metric
	mPointsSim     *obs.Metric
	mPointsCached  *obs.Metric
	mPointsFailed  *obs.Metric
	mRetries       *obs.Metric
	mBreakerOpened *obs.Metric
	mBreakerClosed *obs.Metric
	hQueueWait     *obs.Metric
	hPointMS       *obs.Metric
	hJobMS         *obs.Metric

	// Optional wall-clock tracer (SetTracer): job spans on lane 1, point
	// spans on lane 2. Written only on the runner goroutine.
	tr *obs.Tracer
	t0 time.Time
	// samples counts publish points for the observer's optional sampler
	// (runner goroutine only).
	samples int
}

// New wires a service over an opened result store. o hosts the service's
// metrics and has its status function replaced with the job table; pass
// nil to use a private observer (tests). inj may be nil (no injection).
// Call Resume with the store's recovery report, then Start.
func New(st *store.Store, o *obs.Observer, inj *faultinject.ServiceInjector, cfg Config) *Service {
	cfg.sanitize()
	if o == nil {
		o = obs.New(obs.Config{SampleInterval: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		st:         st,
		o:          o,
		inj:        inj,
		rootCtx:    ctx,
		rootCancel: cancel,
		wake:       make(chan struct{}, 1),
		jobs:       make(map[string]*Job),
		t0:         time.Now(),
	}
	r := o.Registry
	s.mJobsAccepted = r.Counter("sweepd_jobs_accepted_total", "Jobs admitted to the queue")
	s.mJobsShed = r.Counter("sweepd_jobs_shed_total", "Jobs rejected by queue, breaker, or drain")
	s.mJobsDone = r.Counter("sweepd_jobs_completed_total", "Jobs finished with every point succeeded")
	s.mJobsFailed = r.Counter("sweepd_jobs_failed_total", "Jobs finished with failed points or a blown deadline")
	s.mPointsSim = r.Counter("sweepd_points_simulated_total", "Points answered by fresh simulation")
	s.mPointsCached = r.Counter("sweepd_points_cached_total", "Points answered from the result store")
	s.mPointsFailed = r.Counter("sweepd_points_failed_total", "Points that exhausted every retry")
	s.mRetries = r.Counter("sweepd_point_retries_total", "Point attempts retried after failure or timeout")
	s.mBreakerOpened = r.Counter("sweepd_breaker_opened_total", "Circuit-breaker open transitions")
	s.mBreakerClosed = r.Counter("sweepd_breaker_closed_total", "Circuit-breaker close transitions")
	r.Func("sweepd_queue_depth", "Jobs admitted but not yet running", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
	r.Func("sweepd_backlog_points", "Points admitted but not yet collected", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.backlog)
	})
	r.Func("sweepd_breaker_open", "1 while the backlog circuit breaker is shedding", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.breaker {
			return 1
		}
		return 0
	})
	r.Func("sweepd_draining", "1 once drain has begun", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	s.hQueueWait = r.Histogram("sweepd_job_queue_wait_ms", "Queue wait before a job starts (ms)",
		[]float64{1, 10, 100, 1000, 10000, 60000})
	s.hPointMS = r.Histogram("sweepd_point_ms", "Per-point completion latency including retries (ms)",
		[]float64{1, 5, 25, 100, 500, 2500, 10000})
	s.hJobMS = r.Histogram("sweepd_job_ms", "Job run time from start to terminal state (ms)",
		[]float64{10, 100, 1000, 10000, 60000, 300000})
	o.SetStatusFunc(func() any {
		return map[string]any{
			"health": s.Health(),
			"jobs":   s.Jobs(),
		}
	})
	return s
}

// Start launches the runner goroutine. Safe to call once; later calls
// are no-ops.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.runnerWG.Add(1)
	go s.run()
}

// Submit validates and admits one job, journaling it before
// acknowledging so an accepted job survives a crash. Shedding returns
// ErrDraining, ErrQueueFull, or ErrBreakerOpen; spec problems return a
// plain validation error.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	pts, err := spec.Points(s.cfg.Defaults)
	if err != nil {
		return JobView{}, err
	}
	if len(pts) > s.cfg.MaxPointsPerJob {
		return JobView{}, fmt.Errorf("%w: %d > %d", ErrTooManyPoints, len(pts), s.cfg.MaxPointsPerJob)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.mJobsShed.Inc()
		return JobView{}, ErrDraining
	case len(s.pending) >= s.cfg.QueueCap:
		s.mu.Unlock()
		s.mJobsShed.Inc()
		return JobView{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.cfg.QueueCap)
	case s.breaker:
		s.mu.Unlock()
		s.mJobsShed.Inc()
		return JobView{}, fmt.Errorf("%w (%d points outstanding)", ErrBreakerOpen, s.backlog)
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	if err := s.st.BeginJob(id, raw); err != nil {
		s.mu.Unlock()
		return JobView{}, fmt.Errorf("sweepd: journal admission: %w", err)
	}
	j := &Job{
		id:      id,
		spec:    spec,
		points:  pts,
		state:   JobQueued,
		created: time.Now(),
		changed: make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.pending = append(s.pending, j)
	s.backlog += len(pts)
	s.updateBreakerLocked()
	v := s.viewLocked(j)
	s.mu.Unlock()

	s.mJobsAccepted.Inc()
	s.wakeRunner()
	return v, nil
}

// Resume re-enqueues jobs recovered from the journal after a crash,
// keeping their original IDs. Recovered jobs bypass admission control —
// they were admitted in a previous life — and are not re-journaled.
// Points already in the store complete as cache hits, so a resumed job
// redoes only the work the crash actually lost. Returns the number of
// jobs resumed plus per-record errors for unparseable specs.
func (s *Service) Resume(recs []store.JobRecord) (int, []error) {
	var errs []error
	n := 0
	for _, rec := range recs {
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			errs = append(errs, fmt.Errorf("sweepd: resume %s: %w", rec.ID, err))
			continue
		}
		pts, err := spec.Points(s.cfg.Defaults)
		if err != nil {
			errs = append(errs, fmt.Errorf("sweepd: resume %s: %w", rec.ID, err))
			continue
		}
		s.mu.Lock()
		if _, dup := s.jobs[rec.ID]; dup {
			s.mu.Unlock()
			continue
		}
		// Keep fresh IDs past every recovered one.
		if num, ok := strings.CutPrefix(rec.ID, "job-"); ok {
			if v, err := strconv.Atoi(num); err == nil && v > s.nextID {
				s.nextID = v
			}
		}
		j := &Job{
			id:        rec.ID,
			spec:      spec,
			points:    pts,
			state:     JobQueued,
			recovered: true,
			created:   time.Now(),
			changed:   make(chan struct{}),
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, j)
		s.pending = append(s.pending, j)
		s.backlog += len(pts)
		s.updateBreakerLocked()
		s.mu.Unlock()
		n++
	}
	s.wakeRunner()
	return n, errs
}

// Drain stops admitting work, cancels point scheduling, waits (bounded
// by ctx) for in-flight attempts to finish, and marks unfinished jobs
// interrupted. The journal already holds every unfinished job, so the
// next incarnation resumes them. Safe to call more than once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.rootCancel()

	done := make(chan struct{})
	go func() {
		s.runnerWG.Wait()
		s.bg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("sweepd: drain timed out: %w", ctx.Err())
	}

	s.mu.Lock()
	for _, j := range s.order {
		if j.state == JobQueued || j.state == JobRunning {
			j.state = JobInterrupted
			if j.errMsg == "" {
				j.errMsg = "interrupted by drain; resumable from the journal"
			}
			j.notifyLocked()
		}
	}
	s.pending = nil
	s.mu.Unlock()
	return err
}

// Job returns a snapshot of one job.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	return s.viewLocked(j), nil
}

// Jobs returns snapshots of every job in admission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.viewLocked(j))
	}
	return out
}

// Health reports the shedding state.
func (s *Service) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		Draining:      s.draining,
		BreakerOpen:   s.breaker,
		QueueDepth:    len(s.pending),
		BacklogPoints: s.backlog,
		StorePoints:   s.st.Len(),
	}
}

func (s *Service) viewLocked(j *Job) JobView {
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Points:    len(j.points),
		Completed: len(j.rows),
		Cached:    j.cached,
		Failed:    j.failed,
		Recovered: j.recovered,
		Error:     j.errMsg,
	}
	switch {
	case !j.finished.IsZero():
		v.ElapsedMS = j.finished.Sub(j.started).Seconds() * 1000
	case !j.started.IsZero():
		v.ElapsedMS = time.Since(j.started).Seconds() * 1000
	}
	return v
}

// rowsSince returns j's rows from index from on, the channel that will
// close on the next change, and whether the job is terminal — one lock
// acquisition, so streamers never miss an append between read and wait.
func (s *Service) rowsSince(j *Job, from int) ([]PointRow, chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rows []PointRow
	if from < len(j.rows) {
		rows = append(rows, j.rows[from:]...)
	}
	terminal := j.state == JobDone || j.state == JobFailed || j.state == JobInterrupted
	return rows, j.changed, terminal
}

func (s *Service) lookupJob(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Service) wakeRunner() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// updateBreakerLocked moves the circuit breaker across its hysteresis
// band: open at >= BreakerHigh outstanding points, closed again only at
// <= BreakerLow, so admission does not flap around one threshold. Each
// transition bumps its counter, so a scrape distinguishes "opened once
// under a burst" from "flapping" even when samples straddle the episode.
func (s *Service) updateBreakerLocked() {
	if !s.breaker && s.backlog >= s.cfg.BreakerHigh {
		s.breaker = true
		s.mBreakerOpened.Inc()
	} else if s.breaker && s.backlog <= s.cfg.BreakerLow {
		s.breaker = false
		s.mBreakerClosed.Inc()
	}
}

// NoteRecovery exposes one restart's journal-recovery outcome as gauges
// (recovered points, torn bytes dropped, incomplete jobs found, jobs
// re-enqueued), so a scrape can tell a clean start from a crash
// recovery. Call once, before Start.
func (s *Service) NoteRecovery(rec *store.Recovery, resumed int) {
	r := s.o.Registry
	r.Gauge("sweepd_wal_recovered_points", "Cached points replayed from the journal at startup").
		Set(float64(rec.Points))
	r.Gauge("sweepd_wal_truncated_bytes", "Torn journal bytes dropped by recovery at startup").
		Set(float64(rec.TruncatedBytes))
	r.Gauge("sweepd_wal_incomplete_jobs", "Unfinished jobs found in the journal at startup").
		Set(float64(len(rec.IncompleteJobs)))
	r.Gauge("sweepd_jobs_resumed", "Incomplete jobs re-enqueued at startup").
		Set(float64(resumed))
}

// SetTracer attaches a wall-clock tracer: one span per job on lane 1 and
// one per collected point on lane 2, timed relative to t0. Must be
// called before Start — the runner goroutine reads the tracer unlocked.
func (s *Service) SetTracer(tr *obs.Tracer, t0 time.Time) {
	s.tr = tr
	s.t0 = t0
	if tr != nil {
		tr.Lanes = map[int]string{1: "jobs", 2: "points"}
	}
}

// publish refreshes the /metrics and /status snapshots and, when the
// observer carries a sampler, appends to the metric time series on the
// sampler's interval (the series' time axis is wall-clock ns since
// service start). Only the runner goroutine (and Start, before the
// runner exists) calls it: histograms and the sampler are not safe to
// read while another goroutine observes, so the service keeps the
// registry's single-publisher discipline.
func (s *Service) publish() {
	s.o.Publish()
	if sm := s.o.Sampler; sm != nil {
		if s.samples%sm.Interval == 0 {
			sm.Sample(sim.Time(time.Since(s.t0).Nanoseconds()), s.samples)
		}
		s.samples++
	}
}

// run is the runner goroutine: jobs execute one at a time in admission
// order (points within a job already saturate the worker pool).
func (s *Service) run() {
	defer s.runnerWG.Done()
	s.publish()
	for {
		s.mu.Lock()
		var j *Job
		if len(s.pending) > 0 {
			j = s.pending[0]
			s.pending = s.pending[1:]
		}
		s.mu.Unlock()
		if j == nil {
			select {
			case <-s.wake:
				continue
			case <-s.rootCtx.Done():
				return
			}
		}
		if s.rootCtx.Err() != nil {
			// Put it back so Drain marks it interrupted.
			s.mu.Lock()
			s.pending = append([]*Job{j}, s.pending...)
			s.mu.Unlock()
			return
		}
		s.runJob(j)
	}
}

func (s *Service) runJob(j *Job) {
	deadline := s.cfg.JobDeadline
	if j.spec.DeadlineMS > 0 {
		deadline = time.Duration(j.spec.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.rootCtx, deadline)
	defer cancel()

	now := time.Now()
	s.mu.Lock()
	j.state = JobRunning
	j.started = now
	j.notifyLocked()
	s.mu.Unlock()
	s.hQueueWait.Observe(now.Sub(j.created).Seconds() * 1000)
	s.publish()

	err := experiments.ForEachOrdered(ctx, len(j.points), s.cfg.Workers, func(i int) pointOutcome {
		return s.runPoint(ctx, j.points[i])
	}, func(i int, o pointOutcome) {
		row := o.row
		if o.err != nil {
			row = PointRow{
				ConfigDigest: fmt.Sprintf("%016x", j.points[i].Digest()),
				Point:        j.points[i],
				Attempts:     o.attempts,
				Error:        o.err.Error(),
			}
		}
		s.mu.Lock()
		s.backlog--
		s.updateBreakerLocked()
		j.rows = append(j.rows, row)
		switch {
		case o.err != nil:
			j.failed++
		case row.Cached:
			j.cached++
		}
		j.notifyLocked()
		s.mu.Unlock()
		switch {
		case o.err != nil:
			s.mPointsFailed.Inc()
		case row.Cached:
			s.mPointsCached.Inc()
		default:
			s.mPointsSim.Inc()
		}
		s.hPointMS.Observe(o.elapsed.Seconds() * 1000)
		if s.tr != nil {
			end := sim.Time(time.Since(s.t0).Nanoseconds())
			start := end - sim.Time(o.elapsed.Nanoseconds())
			if start < 0 {
				start = 0
			}
			s.tr.Add(2, "point", fmt.Sprintf("%s #%d", j.id, i), start, end-start, i)
		}
		s.publish()
	})

	fin := time.Now()
	s.mu.Lock()
	j.finished = fin
	// Points never scheduled still leave the backlog now.
	s.backlog -= len(j.points) - len(j.rows)
	s.updateBreakerLocked()
	switch {
	case err == nil && j.failed == 0:
		j.state = JobDone
	case s.rootCtx.Err() != nil:
		j.state = JobInterrupted
		j.errMsg = fmt.Sprintf("interrupted by drain after %d of %d points; resumable from the journal",
			len(j.rows), len(j.points))
	case ctx.Err() != nil:
		// The job deadline fired — whether it stopped the feeder (err)
		// or just killed in-flight attempts, the verdict is the same.
		j.state = JobFailed
		j.errMsg = fmt.Sprintf("job deadline (%v) exceeded after %d of %d points", deadline, len(j.rows), len(j.points))
	default:
		j.state = JobFailed
		j.errMsg = fmt.Sprintf("%d of %d points failed", j.failed, len(j.points))
	}
	state := j.state
	j.notifyLocked()
	s.mu.Unlock()

	switch state {
	case JobDone:
		// Journal completion last: a crash between the final point commit
		// and this record re-runs the job, which replays entirely from
		// cache — slower than skipping, but never wrong. Failed jobs stay
		// unfinished in the journal on purpose, so a restart retries them.
		if ferr := s.st.FinishJob(j.id); ferr != nil {
			s.mu.Lock()
			j.errMsg = "completed, but journaling the finish failed: " + ferr.Error()
			s.mu.Unlock()
		}
		s.mJobsDone.Inc()
	case JobFailed:
		s.mJobsFailed.Inc()
	}
	s.hJobMS.Observe(fin.Sub(j.started).Seconds() * 1000)
	if s.tr != nil {
		start := sim.Time(j.started.Sub(s.t0).Nanoseconds())
		if start < 0 {
			start = 0
		}
		s.tr.Add(1, "job", fmt.Sprintf("%s (%s)", j.id, state), start,
			sim.Time(fin.Sub(j.started).Nanoseconds()), len(j.rows))
	}
	s.publish()
}

type pointOutcome struct {
	row      PointRow
	err      error
	attempts int
	elapsed  time.Duration
}

// runPoint resolves one grid point: cache lookup first, then up to
// 1+PointRetries simulation attempts under the per-point timeout, with
// deterministic backoff between attempts. A success is committed to the
// store before it is reported, so a reported row is always durable.
func (s *Service) runPoint(ctx context.Context, pc sweep.Point) pointOutcome {
	start := time.Now()
	dg := pc.Digest()
	if _, art, ok := s.st.Lookup(dg); ok {
		var row PointRow
		if err := json.Unmarshal(art, &row); err == nil && row.Error == "" {
			row.Cached = true
			return pointOutcome{row: row, elapsed: time.Since(start)}
		}
		// Unreadable artifact: degrade to a miss and re-simulate.
	}
	var lastErr error
	for attempt := 0; attempt <= s.cfg.PointRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return pointOutcome{err: err, attempts: attempt, elapsed: time.Since(start)}
		}
		if attempt > 0 {
			s.mRetries.Inc()
			if err := sleepCtx(ctx, backoffFor(s.cfg.Seed, dg, attempt, s.cfg.RetryBase, s.cfg.RetryMax)); err != nil {
				return pointOutcome{err: err, attempts: attempt, elapsed: time.Since(start)}
			}
		}
		row, state, err := s.attempt(ctx, pc, dg, attempt)
		if err == nil {
			row.Attempts = attempt + 1
			// Persist the pure simulation result: runtime metadata
			// (Cached, Attempts) is stripped so the artifact is a
			// function of the point config alone, bit-identical however
			// many retries this run needed.
			persist := row
			persist.Cached = false
			persist.Attempts = 0
			art, cerr := json.Marshal(persist)
			if cerr == nil {
				cerr = s.st.Commit(dg, state, art)
			}
			if cerr != nil {
				lastErr = fmt.Errorf("sweepd: persist point: %w", cerr)
				continue // a result we cannot make durable is a failed attempt
			}
			return pointOutcome{row: row, attempts: attempt + 1, elapsed: time.Since(start)}
		}
		lastErr = err
	}
	return pointOutcome{
		err:      fmt.Errorf("sweepd: %d attempts exhausted, last: %w", s.cfg.PointRetries+1, lastErr),
		attempts: s.cfg.PointRetries + 1,
		elapsed:  time.Since(start),
	}
}

// attempt runs one simulation attempt in a goroutine so the worker can
// abandon it at the point timeout. The abandoned goroutine finishes its
// (side-effect-free) simulation and exits; s.bg tracks it so Drain can
// wait for stragglers. The fault injector's verdict is drawn before the
// goroutine starts: injected failures and slowdowns are deterministic
// per (point, attempt), never dependent on scheduling.
func (s *Service) attempt(ctx context.Context, pc sweep.Point, dg uint64, attempt int) (PointRow, uint64, error) {
	fail, delay := s.inj.PointAttempt(dg, attempt)
	type result struct {
		row   PointRow
		state uint64
		err   error
	}
	ch := make(chan result, 1)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		if delay > 0 {
			if err := sleepCtx(ctx, delay); err != nil {
				ch <- result{err: err}
				return
			}
		}
		if fail {
			ch <- result{err: ErrInjectedFailure}
			return
		}
		row, state, err := SimulatePoint(pc)
		ch <- result{row: row, state: state, err: err}
	}()
	t := time.NewTimer(s.cfg.PointTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.row, r.state, r.err
	case <-t.C:
		return PointRow{}, 0, fmt.Errorf("%w (%v)", ErrPointTimeout, s.cfg.PointTimeout)
	case <-ctx.Done():
		return PointRow{}, 0, ctx.Err()
	}
}
