package obs

import (
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// Lanes are the tracer's fixed thread rows in the exported Chrome trace.
// Each lane holds non-overlapping spans so timelines render cleanly.
const (
	// LaneBatch holds one umbrella span per fault batch.
	LaneBatch = 1
	// LanePhase holds the top-level batch phase decomposition; per batch
	// these spans exactly partition [Start, End].
	LanePhase = 2
	// LaneDetail decomposes the service phase into the paper's timer
	// components (block management, DMA map, unmap, populate, transfer,
	// page table, evict).
	LaneDetail = 3
	// LaneKernel holds one span per GPU kernel phase.
	LaneKernel = 4
	// LaneEngine holds per-event instant marks from the simulation engine
	// (opt-in, capped).
	LaneEngine = 5
	// LaneBlocks holds the profiler's per-VABlock step decomposition of
	// each batch's service window (opt-in: requires Trace and Profile).
	// Step spans are laid out serially in pipeline order, so with
	// ServiceWorkers > 1 the lane, like LaneDetail, can overflow the
	// batch window — the work is real, just overlapped.
	LaneBlocks = 6
)

// LaneNames maps lanes to the thread names written into the trace.
var LaneNames = map[int]string{
	LaneBatch:  "batches",
	LanePhase:  "batch phases",
	LaneDetail: "service detail",
	LaneKernel: "kernels",
	LaneEngine: "engine events",
	LaneBlocks: "block steps",
}

// Span is one completed sim-time interval.
type Span struct {
	Name  string
	Cat   string
	Lane  int
	Start sim.Time
	Dur   sim.Time
	// Batch is the owning batch ID, or -1 for non-batch spans.
	Batch int
}

// Instant is a zero-duration engine mark.
type Instant struct {
	Name string
	At   sim.Time
}

// Tracer accumulates deterministic sim-time spans. A nil *Tracer is valid
// and records nothing, so call sites need no guards.
type Tracer struct {
	spans    []Span
	instants []Instant

	// EngineEventCap bounds recorded engine instants (0 = default).
	EngineEventCap int
	// Lanes, when non-nil, overrides LaneNames in the exported trace —
	// harness traces (e.g. paperfigs) use one named lane per experiment
	// instead of the simulator's fixed rows.
	Lanes map[int]string
}

// DefaultEngineEventCap bounds per-event engine marks so a long run
// cannot balloon the trace.
const DefaultEngineEventCap = 100_000

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{EngineEventCap: DefaultEngineEventCap} }

// Add records one span. Nil-safe.
func (t *Tracer) Add(lane int, cat, name string, start, dur sim.Time, batch int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Cat: cat, Lane: lane, Start: start, Dur: dur, Batch: batch})
}

// AddInstant records one engine event mark, up to the cap. Nil-safe.
func (t *Tracer) AddInstant(name string, at sim.Time) {
	if t == nil {
		return
	}
	cap := t.EngineEventCap
	if cap <= 0 {
		cap = DefaultEngineEventCap
	}
	if len(t.instants) >= cap {
		return
	}
	t.instants = append(t.instants, Instant{Name: name, At: at})
}

// Spans returns the recorded spans (nil-safe).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Instants returns the recorded engine marks (nil-safe).
func (t *Tracer) Instants() []Instant {
	if t == nil {
		return nil
	}
	return t.instants
}

// AddBatch derives the batch's span set from its completed record: an
// umbrella span, the top-level phase partition of [Start, End], and the
// service-phase detail decomposition, all read from rec.Stages(). Phase
// names follow the paper's instrumented-driver timers (DESIGN.md §9 maps
// them).
//
// The top-level phases always sum exactly to End-Start: the service span
// is the window Stages leaves after setup, fetch, dedup and replay, which
// for a driver record equals the batch's block-service makespan. The
// detail lane lays the per-component timers out sequentially inside the
// service window; with ServiceWorkers > 1 their serial sum can exceed the
// parallel makespan, in which case the detail lane intentionally
// overflows the batch window (the components are real work, just
// overlapped). Service time the timers do not cover (e.g. worker
// synchronization) renders as an explicit service_other span.
func (t *Tracer) AddBatch(rec *trace.BatchRecord) {
	if t == nil {
		return
	}
	id := int(rec.ID)
	t.Add(LaneBatch, "batch", "batch", rec.Start, rec.Duration(), id)

	st := rec.Stages()
	cursor := rec.Start
	for k := trace.StageSetup; k <= trace.StageDedup; k++ {
		t.lay(LanePhase, "driver", trace.StageNames[k], &cursor, st[k], id)
	}
	t.lay(LanePhase, "driver", "service", &cursor, serviceWindow(rec, &st), id)
	t.lay(LanePhase, "driver", trace.StageNames[trace.StageReplay], &cursor, st[trace.StageReplay], id)

	detail := rec.Start + st[trace.StageSetup] + st[trace.StageFetch] + st[trace.StageDedup]
	for k := trace.StageBlockMgmt; k < trace.StageReplay; k++ {
		t.lay(LaneDetail, "service", trace.StageNames[k], &detail, st[k], id)
	}
	t.lay(LaneDetail, "service", trace.StageNames[trace.StageOther], &detail, st[trace.StageOther], id)
}

// lay records a span of d at *cursor on lane and advances the cursor;
// a non-positive d records nothing.
func (t *Tracer) lay(lane int, cat, name string, cursor *sim.Time, d sim.Time, batch int) {
	if d <= 0 {
		return
	}
	t.Add(lane, cat, name, *cursor, d, batch)
	*cursor += d
}

// serviceWindow returns the batch's service window: the duration left
// after the setup, fetch, dedup and replay stages of st = rec.Stages().
func serviceWindow(rec *trace.BatchRecord, st *[trace.NumStages]sim.Time) sim.Time {
	return rec.Duration() - st[trace.StageSetup] - st[trace.StageFetch] -
		st[trace.StageDedup] - st[trace.StageReplay]
}

// AddKernel records one GPU kernel phase span. Nil-safe.
func (t *Tracer) AddKernel(phase int, start, dur sim.Time) {
	if t == nil {
		return
	}
	t.Add(LaneKernel, "gpu", "kernel", start, dur, phase)
}
