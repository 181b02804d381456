package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: got[%d]=%d", i, got[i])
		}
	}
}

// TestEngineScheduledCounts: Scheduled moves with every Schedule and
// ScheduleArg and never with dispatch, so an unchanged reading means
// nothing was scheduled in between.
func TestEngineScheduledCounts(t *testing.T) {
	e := NewEngine()
	var inside uint64
	e.Schedule(10, func() { inside = e.Scheduled() })
	e.ScheduleArg(20, func(any) {}, nil)
	if got := e.Scheduled(); got != 2 {
		t.Fatalf("Scheduled = %d after two schedules, want 2", got)
	}
	e.Run()
	if inside != 2 || e.Scheduled() != 2 {
		t.Fatalf("Scheduled = %d during and %d after dispatch, want 2 and 2", inside, e.Scheduled())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
		e.Schedule(0, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 3 || times[0] != 10 || times[1] != 10 || times[2] != 15 {
		t.Fatalf("nested times = %v, want [10 10 15]", times)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func() {
		e.Schedule(-50, func() {
			ran = true
			if e.Now() != 100 {
				t.Errorf("negative delay ran at %d, want 100", e.Now())
			}
		})
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

// TestEngineFailureLeavesClockAtFailureInstant: a run that Fail ends
// returns, and leaves the clock at, the failing event's instant, so the
// diagnostics and Now agree; later events stay queued.
func TestEngineFailureLeavesClockAtFailureInstant(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Schedule(100, func() { e.Fail(boom) })
	e.Schedule(1000, func() { t.Error("event after Fail ran") })
	now, err := e.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if now != 100 || e.Now() != 100 {
		t.Fatalf("clock = %d (returned %d), want 100 (failure instant)", e.Now(), now)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineMaxEventsBackstop(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(0, loop)
	_, err := e.Run()
	if err == nil {
		t.Fatal("expected error from MaxEvents backstop")
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LivelockError", err)
	}
	if le.Executed != 11 {
		t.Fatalf("diagnostic executed = %d, want 11", le.Executed)
	}
	if le.Pending == 0 {
		t.Fatal("diagnostic lost pending-event count")
	}
	// A failed engine stays failed: a second Run dispatches nothing.
	before := e.Executed()
	if _, err2 := e.Run(); err2 == nil || e.Executed() != before {
		t.Fatal("failed engine resumed dispatching")
	}
}

func TestEngineStallWatchdog(t *testing.T) {
	e := NewEngine()
	e.MaxStallEvents = 50
	var spin func()
	spin = func() { e.Schedule(0, spin) } // never advances the clock
	e.Schedule(5, spin)
	now, err := e.Run()
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LivelockError", err)
	}
	if now != 5 || e.Now() != 5 || le.At != 5 {
		t.Fatalf("clock = %d (returned %d), LivelockError.At = %d; want all 5 (stall instant)", e.Now(), now, le.At)
	}
}

func TestEngineStallWatchdogResetsOnProgress(t *testing.T) {
	e := NewEngine()
	e.MaxStallEvents = 10
	// 8 same-instant events per tick, across 100 ticks: never trips.
	for tick := 1; tick <= 100; tick++ {
		for i := 0; i < 8; i++ {
			e.Schedule(Time(tick), func() {})
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("watchdog fired on advancing clock: %v", err)
	}
}

func TestEngineFailStopsRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	ran := 0
	e.Schedule(1, func() { ran++; e.Fail(boom) })
	e.Schedule(2, func() { ran++ })
	_, err := e.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Fail, want 1", ran)
	}
	if e.Err() == nil {
		t.Fatal("Err() lost the failure")
	}
	// First error wins.
	e.Fail(errors.New("later"))
	if !errors.Is(e.Err(), boom) {
		t.Fatal("later Fail overwrote first error")
	}
}

// TestEngineZeroValueReady: a zero Engine, not built by NewEngine, runs
// at virtual time zero.
func TestEngineZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(3, func() { ran = true })
	if at, err := e.Run(); err != nil || at != 3 || !ran {
		t.Fatalf("zero Engine: ran=%v at=%d err=%v, want the event run at 3", ran, at, err)
	}
}

// TestEngineNegativeDelayQueuesBehindInstant: a negative delay, through
// Schedule or ScheduleArg, runs at the current instant after the events
// already queued for it, in scheduling order.
func TestEngineNegativeDelayQueuesBehindInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(v any) { order = append(order, v.(string)) }
	e.Schedule(100, func() {
		order = append(order, "first")
		e.ScheduleArg(-5, note, "arg")
		e.Schedule(-1, func() { order = append(order, "closure") })
	})
	e.Schedule(100, func() { order = append(order, "queued") })
	if at, err := e.Run(); err != nil || at != 100 {
		t.Fatalf("run ended at %d with %v, want 100 and no error", at, err)
	}
	want := []string{"first", "queued", "arg", "closure"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestEngineFailBeforeRun: a run that failed before it started dispatches
// nothing and returns the error at virtual time zero, its events still
// queued.
func TestEngineFailBeforeRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Schedule(1, func() { t.Error("event ran on an engine that had already failed") })
	e.Fail(boom)
	at, err := e.Run()
	if !errors.Is(err, boom) || at != 0 {
		t.Fatalf("Run = (%d, %v), want (0, boom)", at, err)
	}
	if e.Executed() != 0 || e.Pending() != 1 {
		t.Fatalf("executed %d, pending %d; want 0 and 1", e.Executed(), e.Pending())
	}
}

// TestEngineWatchdogSkipsTrippingEvent: the event that trips a watchdog
// does not run. It counts as pending in the diagnostics, and events
// behind it stay queued.
func TestEngineWatchdogSkipsTrippingEvent(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 3
	ran := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(10*i), func() { ran++ })
	}
	at, err := e.Run()
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("MaxEvents: err = %v, want *LivelockError", err)
	}
	if ran != 3 || at != 40 || le.Pending != 2 || e.Pending() != 1 {
		t.Fatalf("MaxEvents: ran %d, ended at %d, diagnostic pending %d, queue %d; want 3, 40, 2, 1",
			ran, at, le.Pending, e.Pending())
	}

	e = NewEngine()
	e.MaxStallEvents = 2
	ran = 0
	for i := 0; i < 4; i++ {
		e.Schedule(5, func() { ran++ })
	}
	if _, err := e.Run(); !errors.As(err, &le) {
		t.Fatalf("MaxStallEvents: err = %v, want *LivelockError", err)
	}
	if ran != 3 || le.Executed != 3 || le.Pending != 1 || e.Pending() != 0 {
		t.Fatalf("MaxStallEvents: ran %d, diagnostic executed %d and pending %d, queue %d; want 3, 3, 1, 0",
			ran, le.Executed, le.Pending, e.Pending())
	}
}

// TestEngineOnEventObservesEachDispatch: the observer sees every
// dispatched event once, at its instant, just before its callback.
func TestEngineOnEventObservesEachDispatch(t *testing.T) {
	e := NewEngine()
	var log []Time
	e.OnEvent = func(at Time) { log = append(log, -at) }
	step := func(any) { log = append(log, e.Now()) }
	e.ScheduleArg(7, step, nil)
	e.Schedule(3, func() {
		log = append(log, e.Now())
		e.Schedule(0, func() { log = append(log, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{-3, 3, -3, 3, -7, 7}
	if len(log) != len(want) || uint64(len(log)/2) != e.Executed() {
		t.Fatalf("log %v over %d events, want %v", log, e.Executed(), want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v (observer negated, then callback)", log, want)
		}
	}
}

// TestEngineFreeListHoldsPeakLive: dispatched events are recycled within
// the run, so the run allocates only as many event structs as were alive
// at once: the peak Pending() plus the one being dispatched.
func TestEngineFreeListHoldsPeakLive(t *testing.T) {
	e := NewEngine()
	const chains, links = 10, 100
	left := chains * links
	var fire func()
	fire = func() {
		if left--; left >= chains {
			e.Schedule(Time(1+left%7), fire)
		}
	}
	for i := 0; i < chains; i++ {
		e.Schedule(Time(i), fire)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != chains*links {
		t.Fatalf("executed %d events, want %d", e.Executed(), chains*links)
	}
	if n := len(e.free); n != chains+1 {
		t.Fatalf("free list holds %d events after %d dispatches with %d pending at peak, want %d",
			n, e.Executed(), chains, chains+1)
	}
}

// TestEngineRecycleDropsReferences: a recycled event keeps no reference
// to its callback or argument, so the free list never pins dead model
// state.
func TestEngineRecycleDropsReferences(t *testing.T) {
	e := NewEngine()
	payload := new([1 << 10]byte)
	e.ScheduleArg(1, func(any) {}, payload)
	e.Schedule(2, func() { _ = payload })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.free) != 2 {
		t.Fatalf("free list holds %d events, want 2", len(e.free))
	}
	for i, ev := range e.free {
		if ev.fn != nil || ev.afn != nil || ev.arg != nil {
			t.Fatalf("recycled event %d still references its callback or argument", i)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if Millisecond.Micros() != 1000 {
		t.Errorf("Millisecond.Micros() = %v", Millisecond.Micros())
	}
	if (2 * Second).Millis() != 2000 {
		t.Errorf("(2s).Millis() = %v", (2 * Second).Millis())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs matched %d/1000 draws", same)
	}
}

// TestDrawMatchesRNG: draw i of the pure function is the (i+1)-th
// Uint64 of a generator with the same seed, for seeds near 0 and near
// 2^64-1, where the state wraps within the first draws.
func TestDrawMatchesRNG(t *testing.T) {
	for _, seed := range []uint64{0, 1, 11, 42, math.MaxUint64 - golden, math.MaxUint64 - 1, math.MaxUint64} {
		r := NewRNG(seed)
		for i := uint64(0); i < 1000; i++ {
			if got, want := Draw(seed, i), r.Uint64(); got != want {
				t.Fatalf("seed %#x: Draw(seed, %d) = %#x, RNG draw %#x", seed, i, got, want)
			}
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPanicsOnBadArgs(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Intn(-3) },
		func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestEngineMonotonicDispatch(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
