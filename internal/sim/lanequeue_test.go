package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refHeap is the engine's original binary heap, kept verbatim as the
// ordering oracle: the lane queue must pop in exactly this heap's
// (at, seq) order on every schedule stream.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// lockstep drives a laneQueue and the refHeap oracle side by side with
// an engine-like clock: now only moves forward, to a popped event's time
// or to a RunUntil deadline, and every push is stamped at now or later.
type lockstep struct {
	t   testing.TB
	q   laneQueue
	rh  refHeap
	seq uint64
	now Time
}

// push schedules an event delay d after now, saturating at MaxTime the
// way Engine.deadline does.
func (s *lockstep) push(d Time) {
	at := s.now + d
	if d < 0 {
		at = s.now
	} else if at < s.now {
		at = MaxTime
	}
	s.seq++
	s.q.Push(&event{at: at, seq: s.seq}, s.now)
	heap.Push(&s.rh, &event{at: at, seq: s.seq})
}

// check fails on the first divergence between a queue pop and the
// oracle's next event.
func (s *lockstep) check(got *event) {
	s.t.Helper()
	want := heap.Pop(&s.rh).(*event)
	if got == nil {
		s.t.Fatalf("laneQueue empty, refHeap has (at=%d, seq=%d)", want.at, want.seq)
	}
	if got.at != want.at || got.seq != want.seq {
		s.t.Fatalf("pop order diverged: laneQueue (at=%d, seq=%d), refHeap (at=%d, seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	s.now = got.at
}

func (s *lockstep) pop() {
	s.t.Helper()
	if s.rh.Len() > 0 {
		s.check(s.q.PopMin())
	}
}

// runUntil mirrors Engine.RunUntil: pop every event at or before the
// deadline, then advance the idle clock to it.
func (s *lockstep) runUntil(deadline Time) {
	s.t.Helper()
	for s.rh.Len() > 0 && s.rh[0].at <= deadline {
		s.check(s.q.PopMinUntil(deadline))
	}
	if ev := s.q.PopMinUntil(deadline); ev != nil {
		s.t.Fatalf("PopMinUntil(%d) returned (at=%d, seq=%d) past the oracle", deadline, ev.at, ev.seq)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *lockstep) drain() {
	s.t.Helper()
	for s.rh.Len() > 0 {
		s.pop()
	}
	if s.q.PopMin() != nil || s.q.size != 0 {
		s.t.Fatal("laneQueue non-empty after refHeap drained")
	}
}

// hotDelays are the fixed latencies that carry most of the engine's
// pushes on the random-oversub benchmark (DESIGN.md §13): access and
// fault-buffer steps, interrupt, replay, and the transfer chain.
var hotDelays = []Time{1000, 20, 500, 480, 400, 0, 12000, 11500, 2000, 1500, 2500, 3000}

// mixedDelay draws from the engine's delay mix: mostly hot delays,
// a long tail of one-off ones, and rare far-future and saturating
// outliers.
func mixedDelay(rng *rand.Rand, now Time) Time {
	switch r := rng.Intn(100); {
	case r < 80:
		return hotDelays[rng.Intn(len(hotDelays))]
	case r < 95:
		return Time(rng.Intn(int(Millisecond)))
	case r < 98:
		return Time(rng.Intn(int(Second)))
	default:
		return MaxTime - now - Time(rng.Intn(1000)) // saturation region
	}
}

// drive runs ops random pushes, pops and idle-clock advances in
// lockstep, then drains both queues.
func drive(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	s := &lockstep{t: t}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 45 && s.rh.Len() > 0:
			s.pop()
		case r < 48:
			s.runUntil(s.now + Time(rng.Intn(int(20*Microsecond))))
		default:
			s.push(mixedDelay(rng, s.now))
		}
	}
	s.drain()
}

// TestLaneQueueMatchesHeapOrder is the side-by-side property test: on
// randomized schedule streams with the engine's delay mix, the lane
// queue and the binary-heap oracle must agree on every single pop.
func TestLaneQueueMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		drive(t, rng, 2000)
	}
}

// TestLaneQueueZeroDelayFIFO pins the tie-break contract in isolation:
// events at one instant pop in scheduling order.
func TestLaneQueueZeroDelayFIFO(t *testing.T) {
	var q laneQueue
	const n = 100
	for i := 1; i <= n; i++ {
		q.Push(&event{at: 42, seq: uint64(i)}, 0)
	}
	for i := 1; i <= n; i++ {
		ev := q.PopMin()
		if ev == nil || ev.seq != uint64(i) {
			t.Fatalf("tie-break broken at pop %d: got %+v", i, ev)
		}
	}
}

// TestLaneQueuePopMinUntil checks the deadline-bounded pop: events past
// the deadline stay queued and pop later in order.
func TestLaneQueuePopMinUntil(t *testing.T) {
	var q laneQueue
	times := []Time{5, 10, 10, 3 * Millisecond, MaxTime}
	for i, at := range times {
		q.Push(&event{at: at, seq: uint64(i + 1)}, 0)
	}
	var got []Time
	for {
		ev := q.PopMinUntil(Millisecond)
		if ev == nil {
			break
		}
		got = append(got, ev.at)
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 10 {
		t.Fatalf("PopMinUntil(1ms) returned %v, want [5 10 10]", got)
	}
	if q.size != 2 {
		t.Fatalf("events past deadline must stay queued: size %d, want 2", q.size)
	}
	if ev := q.PopMin(); ev == nil || ev.at != 3*Millisecond {
		t.Fatalf("post-deadline pop got %+v, want at=3ms", ev)
	}
	if ev := q.PopMin(); ev == nil || ev.at != MaxTime {
		t.Fatalf("final pop got %+v, want at=MaxTime", ev)
	}
}

// TestLaneQueueLaneRefill drains lanes and refills them: drained lanes
// are recycled, so two delays that empty and refill for a whole run
// never need more than two lanes.
func TestLaneQueueLaneRefill(t *testing.T) {
	s := &lockstep{t: t}
	seen := map[*lane]bool{}
	for round := 0; round < 50; round++ {
		s.push(500)
		s.push(500)
		s.push(20)
		seen[s.q.slots[slotOf(500)]] = true
		seen[s.q.slots[slotOf(20)]] = true
		s.pop()
		s.pop()
		s.pop() // the 500 lane and the 20 lane are both drained
		if len(s.q.heap) != 0 {
			t.Fatalf("round %d: %d lanes pending after draining all", round, len(s.q.heap))
		}
	}
	if len(seen) != 2 || len(s.q.free) != 2 {
		t.Fatalf("50 refills of two delays used %d lanes and left %d idle, want 2 and 2", len(seen), len(s.q.free))
	}
	s.drain()
}

// TestLaneQueueSlotCollision alternates two delays that hash to one
// slot while both have events pending: each push displaces the other
// delay's lane, the displaced lanes drain in order, and they are
// recycled instead of leaking.
func TestLaneQueueSlotCollision(t *testing.T) {
	a := Time(1000)
	b := a + 20
	for slotOf(b) != slotOf(a) {
		b += 20
	}
	s := &lockstep{t: t}
	for i := 0; i < 200; i++ {
		s.push(a)
		s.push(b)
		if i%3 == 0 {
			s.pop()
		}
	}
	s.drain()
	if len(s.q.free) == 0 {
		t.Fatal("no displaced lane was recycled after 400 colliding pushes")
	}
	for i := 0; i < 100; i++ {
		s.push(a)
		s.push(b)
		s.pop()
		s.pop()
	}
	s.drain()
}

// TestLaneQueueCompactsLongLivedLane keeps a hot lane non-empty for a
// long run: its consumed head must be compacted in place, so the lane's
// array stays at its working size instead of growing with every push.
func TestLaneQueueCompactsLongLivedLane(t *testing.T) {
	s := &lockstep{t: t}
	for i := 0; i < 8; i++ {
		s.push(Microsecond)
	}
	for i := 0; i < 10000; i++ {
		s.push(Microsecond)
		if i%7 == 0 {
			s.push(hotDelays[i%len(hotDelays)])
		}
		s.pop()
		if i%7 == 0 {
			s.pop()
		}
	}
	l := s.q.slots[slotOf(Microsecond)]
	if l == nil || l.delay != Microsecond || len(l.evs) == 0 {
		t.Fatal("the long-lived lane drained")
	}
	if c := cap(l.evs); c > 64 {
		t.Fatalf("long-lived lane grew to cap %d holding %d events; its head is not compacted", c, len(l.evs)-l.head)
	}
	s.drain()
}

// TestLaneQueuePushAfterIdleAdvance moves the clock with RunUntil while
// events are pending, as the engine does between host phases: later
// pushes with the same delay land in the same lanes at later times, and
// their pops interleave with the older events in (at, seq) order.
func TestLaneQueuePushAfterIdleAdvance(t *testing.T) {
	s := &lockstep{t: t}
	for _, d := range []Time{400, 1000, 12000, 30 * Microsecond} {
		s.push(d)
		s.push(d)
	}
	s.runUntil(5 * Microsecond) // pops the 400 and 1000 lanes
	for _, d := range []Time{0, 400, 1000, 12000, 30 * Microsecond} {
		s.push(d)
	}
	s.runUntil(5*Microsecond + 12000)
	s.push(12000)
	s.drain()

	// The same through the engine.
	e := NewEngine()
	var order []int
	e.Schedule(Millisecond, func() { order = append(order, 1) })
	e.RunUntil(Millisecond / 2)
	e.Schedule(Millisecond/2, func() { order = append(order, 2) }) // same instant, later seq
	e.Schedule(Millisecond/4, func() { order = append(order, 0) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("dispatch order after an idle advance %v, want [0 1 2]", order)
	}
}

// TestLaneQueueMaxTime pushes saturated events from several clock
// values: each lands in its own lane at MaxTime, and they pop after all
// finite events in scheduling order.
func TestLaneQueueMaxTime(t *testing.T) {
	s := &lockstep{t: t}
	clocks := map[Time]bool{}
	for i := 0; i < 20; i++ {
		clocks[s.now] = true
		s.push(MaxTime) // saturates at MaxTime
		s.push(MaxTime - s.now)
		s.push(hotDelays[i%len(hotDelays)])
		s.pop()
	}
	if n := len(s.q.heap); n < len(clocks) {
		t.Fatalf("%d lanes pending, want at least one per saturating clock value (%d)", n, len(clocks))
	}
	s.drain()
}

// TestEventQueueRetainedMemoryBounded is the queue's analogue of
// TestEventFreeListBounded: after a run with 10,000 distinct delays
// pending at once, the idle lanes, their arrays and the lane heap decay
// to a fixed bound at run exit.
func TestEventQueueRetainedMemoryBounded(t *testing.T) {
	retained := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := retained()
	e := NewEngine()
	const distinct = 10000
	nop := func() {}
	for i := 0; i < distinct; i++ {
		e.Schedule(Time(i), nop)
	}
	for i := 0; i < 4*maxIdleCap; i++ {
		e.Schedule(Time(distinct), nop) // one lane with a large array
	}
	if got := len(e.q.heap); got != distinct+1 {
		t.Fatalf("%d lanes pending, want %d", got, distinct+1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	q := &e.q
	if len(q.free) > maxIdleLanes {
		t.Fatalf("%d idle lanes kept after the run, bound is %d", len(q.free), maxIdleLanes)
	}
	for _, l := range q.free {
		if cap(l.evs) > maxIdleCap {
			t.Fatalf("idle lane keeps an array of %d events, bound is %d", cap(l.evs), maxIdleCap)
		}
	}
	for i, l := range q.slots {
		if l != nil {
			t.Fatalf("slot %d still holds a lane after the run drained", i)
		}
	}
	if cap(q.heap) > maxIdleLanes {
		t.Fatalf("lane heap keeps capacity %d, bound is %d", cap(q.heap), maxIdleLanes)
	}
	// Everything above plus the event free list: 10,000 lanes' worth of
	// map, heap and lane storage would be several times this.
	const bound = 256 << 10
	if after := retained(); after > before+bound {
		t.Fatalf("engine retains %d bytes after the run, bound is %d", after-before, bound)
	}
	runtime.KeepAlive(e)
}

// TestScheduleOverflowSaturates is the regression test for the
// time-overflow bug: now+delay wrapping negative used to clamp the
// event to the present, firing a far-future event immediately. It must
// saturate at MaxTime and stay pending past any finite deadline.
func TestScheduleOverflowSaturates(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %d, want 10", e.Now())
	}

	fired := false
	near := false
	e.Schedule(MaxTime, func() { fired = true }) // now+MaxTime overflows
	e.Schedule(Microsecond, func() { near = true })
	if _, err := e.RunUntil(e.Now() + Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("overflowed far-future event fired within a 1s horizon")
	}
	if !near {
		t.Fatal("near event did not fire")
	}
	if e.Pending() != 1 {
		t.Fatalf("saturated event must stay pending: Pending() = %d", e.Pending())
	}

	// The saturated event still fires eventually, at the end of time.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("saturated event never fired on an unbounded run")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock at %d, want MaxTime", e.Now())
	}
	if MaxTime != Time(math.MaxInt64) {
		t.Fatal("MaxTime must be the maximum Time")
	}
}

// TestEventFreeListBounded is the regression test for the free-list
// leak: after a run with a huge pending peak, the recycle list must not
// retain more than maxFreeEvents structs.
func TestEventFreeListBounded(t *testing.T) {
	e := NewEngine()
	const n = 8 * maxFreeEvents
	for i := 0; i < n; i++ {
		e.Schedule(Time(i), func() {})
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free list holds %d events after the run, cap is %d", len(e.free), maxFreeEvents)
	}
}

// TestScheduleArgOrdering checks that arg-carrying events share the
// same (at, seq) ordering and panic isolation as closure events.
func TestScheduleArgOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleArg(5, func(v any) { order = append(order, v.(int)) }, 1)
	e.Schedule(5, func() { order = append(order, 2) })
	e.ScheduleArg(0, func(v any) { order = append(order, v.(int)) }, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("dispatch order %v, want [0 1 2]", order)
	}

	e2 := NewEngine()
	e2.ScheduleArg(0, func(any) { panic("boom") }, nil)
	if _, err := e2.Run(); err == nil {
		t.Fatal("panic in arg callback must surface as the run error")
	}
}
