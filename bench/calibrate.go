package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is shared: its effective CPU speed
// drifts by tens of percent over minutes, far more than the changes the
// benchmark must resolve. Every timed op is therefore preceded by a fixed
// calibration kernel, and the op's times are rescaled by calibRef over
// the kernel's time, giving "calibrated seconds": the op's duration on
// the host at the speed where the kernel takes calibRef. The kernel is
// benchmark code, identical on both sides of a comparison, so only the
// drift cancels; the raw wall times are kept in the -out file.

// calibRef is the kernel's duration on the reference machine (a 2-core
// Xeon VM, Go 1.24) when it is quiet, so calibrated times read close to
// that machine's wall times. Its value only scales the unit.
const calibRef = 0.019

// calibrator holds the kernel's buffers, so after its first run it
// allocates nothing and the heap an op leaves behind cannot slow it.
type calibrator struct {
	keys   []uint64
	events []calEvent
	table  map[uint64]uint64
	sink   uint64
}

type calEvent struct{ at, seq uint64 }

// The kernel mixes the simulator's kinds of host work: sorting keys, a
// binary-heap event loop and hash-table updates. It runs on one core;
// on the reference machine that tracked the two-worker paperfigs op
// better than a kernel run on both cores.
const (
	calKeys   = 1 << 15
	calEvents = 1 << 17
	calQueue  = 256
	calTable  = 1 << 16
	calWrites = 1 << 17
)

// measure runs the kernel reps times and returns its shortest time in
// seconds. A disturbance can only slow the kernel, so the shortest run
// is the best estimate of the host's speed.
func (c *calibrator) measure(reps int) float64 {
	if c.keys == nil {
		c.keys = make([]uint64, calKeys)
		c.events = make([]calEvent, 0, calQueue)
		c.table = make(map[uint64]uint64, calTable)
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		c.run()
		if t := time.Since(start).Seconds(); r == 0 || t < best {
			best = t
		}
	}
	return best
}

func (c *calibrator) run() {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.keys {
		c.keys[i] = next()
	}
	slices.Sort(c.keys)

	q := c.events[:0]
	var seq uint64
	for i := 0; i < calQueue; i++ {
		q = heapPush(q, calEvent{at: uint64(i), seq: seq})
		seq++
	}
	for n := 0; n < calEvents; n++ {
		var e calEvent
		e, q = heapPop(q)
		q = heapPush(q, calEvent{at: e.at + 1 + next()%1024, seq: seq})
		seq++
	}
	c.events = q

	clear(c.table)
	for i := 0; i < calWrites; i++ {
		c.table[next()%calTable] += uint64(i)
	}
	c.sink += c.keys[0] + q[0].at + c.table[1]
}

func calLess(a, b calEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func heapPush(q []calEvent, e calEvent) []calEvent {
	q = append(q, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !calLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	return q
}

func heapPop(q []calEvent) (calEvent, []calEvent) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && calLess(q[l], q[small]) {
			small = l
		}
		if r := l + 1; r < n && calLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top, q
}
