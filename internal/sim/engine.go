// Package sim provides a small deterministic discrete-event simulation
// engine. Time is measured in integer nanoseconds of virtual time. Events
// scheduled for the same instant fire in FIFO order of scheduling, which
// makes every simulation built on the engine fully reproducible.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000

	// MaxTime is the end of virtual time. Schedule saturates here when
	// now+delay would overflow, so a "practically never" delay stays in
	// the far future instead of wrapping negative and firing at once.
	MaxTime Time = math.MaxInt64
)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// event is one scheduled callback: either a plain closure fn, or an
// arg-carrying pair (afn, arg) — the allocation-free form hot paths use
// so that scheduling needs no per-event closure.
type event struct {
	at  Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

// Engine is a discrete-event simulation executive. The zero value is ready
// to use at virtual time zero.
type Engine struct {
	q   laneQueue
	now Time
	seq uint64
	err error
	// executed counts events that have been dispatched, for diagnostics.
	executed uint64
	// stall counts consecutive events dispatched without the virtual
	// clock advancing, for the no-progress watchdog.
	stall uint64
	// MaxEvents, when non-zero, aborts Run after that many events as a
	// runaway-simulation backstop. The run ends with an ErrLivelock-
	// wrapped *LivelockError.
	MaxEvents uint64
	// MaxStallEvents, when non-zero, aborts Run once that many
	// consecutive events execute at the same virtual instant — a model
	// rescheduling itself with zero delay never advances the clock, and
	// this watchdog catches it long before MaxEvents would.
	MaxStallEvents uint64
	// free recycles dispatched event structs so steady-state scheduling
	// allocates nothing. It grows to the most events alive at once: the
	// run's peak Pending() plus the one being dispatched.
	free []*event
	// OnEvent, when set, observes every dispatched event just before its
	// callback runs. Observers must not schedule events or mutate model
	// state; the hook exists for tracing and costs nothing when nil. A
	// model that batches work into one event (the GPU's access-completion
	// groups) is observed once per event, not once per batched item.
	OnEvent func(at Time)
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.q.size }

// Executed reports how many events have been dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Scheduled reports how many events have been scheduled so far, which is
// also the sequence number of the most recent one. When it reads the
// same at two points, nothing was scheduled in between: a model can then
// fold work into the event it scheduled last, at that event's instant,
// without changing dispatch order.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero: the event runs at the current instant, after events already queued
// for that instant. A delay so large that now+delay overflows saturates
// at MaxTime instead of wrapping.
func (e *Engine) Schedule(delay Time, fn func()) {
	ev := e.newEvent(delay)
	ev.fn = fn
	e.q.Push(ev, e.now)
}

// ScheduleArg enqueues fn(arg) to run after delay, with the same delay
// semantics as Schedule. Passing the argument through the event instead
// of a closure lets hot paths schedule without allocating.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	ev := e.newEvent(delay)
	ev.afn = fn
	ev.arg = arg
	e.q.Push(ev, e.now)
}

// newEvent takes an event struct from the free list (or allocates one)
// and stamps it with the next sequence number and its deadline: now +
// delay, with a negative delay clamped to zero and overflow saturated at
// MaxTime.
func (e *Engine) newEvent(delay Time) *event {
	t := e.now + max(delay, 0)
	if t < e.now { // signed overflow: now + delay wrapped
		t = MaxTime
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = t, e.seq
	return ev
}

// recycle returns a popped event to the free list. The callback and
// argument references are dropped so recycled events never pin dead
// closures.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Fail records err, which must be non-nil, as the run's terminal error;
// the dispatch loop ends after the current event. The first error wins.
// It is the one way to end a run early: models use it to surface
// unrecoverable conditions from inside event callbacks, where no return
// path to the Run caller exists.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err returns the terminal error recorded by Fail or a watchdog, if any.
func (e *Engine) Err() error { return e.err }

// Run dispatches events in timestamp order until the queue drains, Fail
// is called, or a watchdog fires. It returns the final virtual time and
// the terminal error, if any; a run that already failed returns its
// error without dispatching further events.
//
// A panicking callback becomes the run's terminal *CallbackPanicError:
// one deferred recover covers the whole loop, so a model bug aborts one
// simulation, not the process, without a recovery frame per event.
func (e *Engine) Run() (at Time, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.Fail(&CallbackPanicError{
				Value:    r,
				At:       e.now,
				Executed: e.executed,
				Stack:    string(debug.Stack()),
			})
			at, err = e.now, e.err
		}
	}()
	for e.err == nil {
		ev := e.q.PopMin()
		if ev == nil {
			break
		}
		e.dispatch(ev)
		e.recycle(ev)
	}
	return e.now, e.err
}

// dispatch runs one popped event, enforcing the livelock watchdogs. A
// watchdog that fires fails the run instead, and the event does not run.
func (e *Engine) dispatch(ev *event) {
	if ev.at > e.now {
		e.stall = 0
	} else {
		e.stall++
		if e.MaxStallEvents != 0 && e.stall > e.MaxStallEvents {
			e.Fail(&LivelockError{
				Reason:   fmt.Sprintf("virtual clock stalled for %d consecutive events", e.stall),
				At:       e.now,
				Executed: e.executed,
				Pending:  e.q.size + 1,
			})
			return
		}
	}
	e.now = ev.at
	e.executed++
	if e.MaxEvents != 0 && e.executed > e.MaxEvents {
		e.Fail(&LivelockError{
			Reason:   fmt.Sprintf("MaxEvents (%d) exceeded", e.MaxEvents),
			At:       e.now,
			Executed: e.executed,
			Pending:  e.q.size + 1,
		})
		return
	}
	if e.OnEvent != nil {
		e.OnEvent(e.now)
	}
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
}
