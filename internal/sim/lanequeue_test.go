package sim

import (
	"container/heap"
	"math"
	"math/rand"
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
// an engine-like clock: now only moves forward, to a popped event's
// time, and every push is stamped at now or later.
type lockstep struct {
	t   testing.TB
	q   laneQueue
	rh  refHeap
	seq uint64
	now Time
}

// push schedules an event delay d after now, clamping a negative delay
// to zero and saturating at MaxTime the way Engine.newEvent does.
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

// drive runs ops random pushes and pops in lockstep, then drains both
// queues.
func drive(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	s := &lockstep{t: t}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 45 && s.rh.Len() > 0:
			s.pop()
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

// TestLaneQueuePopMinEmpty: an empty queue pops nil and allocates no
// slot table; a lane that drains is cleared from its slot and kept for
// reuse.
func TestLaneQueuePopMinEmpty(t *testing.T) {
	var q laneQueue
	if q.PopMin() != nil || q.slots != nil {
		t.Fatal("empty queue popped an event or allocated its slot table")
	}
	ev := &event{at: 500, seq: 1}
	q.Push(ev, 0)
	if got := q.PopMin(); got != ev {
		t.Fatalf("popped %v, want the one pushed event", got)
	}
	if q.PopMin() != nil || q.size != 0 || len(q.heap) != 0 {
		t.Fatalf("drained queue: size %d, %d lanes in the heap", q.size, len(q.heap))
	}
	if q.slots[slotOf(500)] != nil || len(q.free) != 1 {
		t.Fatalf("drained lane left in its slot or not kept: %d idle lanes", len(q.free))
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

// TestScheduleOverflowSaturates is the regression test for the
// time-overflow bug: now+delay wrapping negative used to clamp the
// event to the present, firing a far-future event immediately. It must
// saturate at MaxTime and fire after every finite event.
func TestScheduleOverflowSaturates(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() {
		e.Schedule(MaxTime, func() { fired = true }) // now+MaxTime overflows
		e.Schedule(Second, func() {
			if fired {
				t.Error("overflowed far-future event fired before a 1s event")
			}
			if e.Pending() != 1 {
				t.Errorf("saturated event must stay pending: Pending() = %d", e.Pending())
			}
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("saturated event never fired")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock at %d, want MaxTime", e.Now())
	}
	if MaxTime != Time(math.MaxInt64) {
		t.Fatal("MaxTime must be the maximum Time")
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
