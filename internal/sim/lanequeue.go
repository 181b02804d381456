package sim

// lanequeue.go — the engine's event queue: one FIFO lane per scheduling
// delay, plus a binary min-heap of the non-empty lanes keyed by each
// lane's head event.
//
// The modelled UVM fault path is a chain of fixed hardware and driver
// latencies (GMMU write, memory access, interrupt, replay), so the
// engine's pushes concentrate on very few delays: most of them join a
// lane that already has events pending, and a push is then a slice
// append. Only a push that opens a lane, and every pop, touch the heap,
// and the heap holds lanes, not events — a handful of entries.
//
// Ordering contract: PopMin returns events in strictly ascending
// (at, seq) order, the retired binary heap's comparator, so the FIFO
// tie-break at equal timestamps (and every digest golden) is preserved.
// The argument: a push carries the engine clock now, which never runs
// backwards, and seq only grows. Two events of one lane share the delay
// d = at - now, so the later push has the larger or equal now, hence
// the larger or equal at, and the larger seq. Every lane is therefore already
// sorted by (at, seq), and the smallest lane head is the global
// minimum. The lockstep tests in lanequeue_test.go and the
// FuzzEventQueueOrder target check this against a container/heap oracle.

// laneQueue is the engine's pending-event set. The zero value is empty
// and ready to use.
type laneQueue struct {
	size int
	// slots holds each delay's pending lane, indexed by a hash of the
	// delay. A push whose slot holds another delay's lane opens a new
	// lane there; the displaced lane takes no more pushes, drains in
	// order and is recycled like any other. The first push allocates
	// the table, so an engine that is built but not yet run stays small.
	slots *[laneSlots]*lane
	heap  []laneHead // the non-empty lanes, min-ordered by head
	free  []*lane    // drained lanes, for reuse
}

// lane is a FIFO of pending events pushed with one delay; evs[head:]
// are pending.
type lane struct {
	delay Time
	evs   []*event
	head  int
}

// laneHead is one heap entry: a copy of the lane's head key, so sifting
// compares without chasing the lane's events.
type laneHead struct {
	at  Time
	seq uint64
	l   *lane
}

func (a laneHead) less(b laneHead) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// laneSlots is well above the delays the engine has pending at
	// once: a few dozen, up to 147 in the paper-figure experiments, where
	// 256 slots already collided into up to 1,097 pending lanes.
	laneBits  = 10
	laneSlots = 1 << laneBits
)

// slotOf hashes a delay to its slot (Fibonacci hashing: the hot delays
// are round multiples of 20 ns, which a plain mask would cluster).
func slotOf(d Time) int { return int(uint64(d) * 0x9e3779b97f4a7c15 >> (64 - laneBits)) }

// Push queues ev, which the engine stamped at now or later.
func (q *laneQueue) Push(ev *event, now Time) {
	if q.slots == nil {
		q.slots = new([laneSlots]*lane)
	}
	d := ev.at - now
	slot := &q.slots[slotOf(d)]
	l := *slot
	if l == nil || l.delay != d {
		l = q.newLane(d)
		*slot = l
		q.heap = append(q.heap, laneHead{at: ev.at, seq: ev.seq, l: l})
		q.up(len(q.heap) - 1)
	} else if l.head > 0 && len(l.evs) == cap(l.evs) && 2*l.head >= len(l.evs) {
		// A lane that never drains: compact its consumed head instead
		// of growing the array.
		n := copy(l.evs, l.evs[l.head:])
		clear(l.evs[n:])
		l.evs, l.head = l.evs[:n], 0
	}
	l.evs = append(l.evs, ev)
	q.size++
}

// newLane returns a lane for delay d, recycled from the free list when
// one is there.
func (q *laneQueue) newLane(d Time) *lane {
	n := len(q.free)
	if n == 0 {
		return &lane{delay: d}
	}
	l := q.free[n-1]
	q.free[n-1] = nil
	q.free = q.free[:n-1]
	l.delay = d
	return l
}

// PopMin removes and returns the minimum (at, seq) event, or nil when
// the queue is empty.
func (q *laneQueue) PopMin() *event {
	if len(q.heap) == 0 {
		return nil
	}
	l := q.heap[0].l
	ev := l.evs[l.head]
	l.evs[l.head] = nil
	l.head++
	q.size--
	if l.head < len(l.evs) {
		next := l.evs[l.head]
		q.heap[0].at, q.heap[0].seq = next.at, next.seq
	} else {
		l.evs, l.head = l.evs[:0], 0
		if slot := &q.slots[slotOf(l.delay)]; *slot == l {
			*slot = nil
		}
		q.free = append(q.free, l)
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap[last] = laneHead{}
		q.heap = q.heap[:last]
	}
	q.down(0)
	return ev
}

func (q *laneQueue) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (q *laneQueue) down(i int) {
	h := q.heap
	n := len(h)
	if i >= n {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
