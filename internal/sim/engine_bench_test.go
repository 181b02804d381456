package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineDispatch measures the steady-state cost of the engine's
// schedule/pop/dispatch cycle with a realistic number of outstanding
// events. Each op is one event dispatch; -benchmem exposes the per-event
// allocation behaviour the event free list is meant to eliminate.
func BenchmarkEngineDispatch(b *testing.B) {
	const outstanding = 64
	e := NewEngine()
	remaining := b.N
	tick := func(self *func()) func() {
		return func() {
			if remaining <= 0 {
				return
			}
			remaining--
			e.Schedule(Microsecond, *self)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < outstanding; i++ {
		var fn func()
		fn = tick(&fn)
		e.Schedule(Time(i), fn)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// oversubMix is the delay mix the engine sees on the random-oversub
// benchmark workload (seeded random reads over twice the GPU memory),
// measured as the share of pushes per delay: 1 µs (44 %), 20 ns, 500 ns,
// 480 ns, 400 ns and 0 (21 % together), and the 1.5–13 µs transfer
// chain in 500 ns steps (about 1.5 % each). mixDelay adds the measured
// long tail of one-off delays.
var oversubMix = func() []Time {
	mix := make([]Time, 0, 1024)
	for _, c := range []struct {
		d Time
		n int
	}{{1000, 452}, {20, 57}, {500, 55}, {480, 39}, {400, 32}, {0, 29}} {
		for i := 0; i < c.n; i++ {
			mix = append(mix, c.d)
		}
	}
	for d := Time(1500); d <= 13000; d += 500 {
		for i := 0; i < 15; i++ {
			mix = append(mix, d)
		}
	}
	rand.New(rand.NewSource(11)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}()

// mixDelay is the i-th delay of the random-oversub stream: oversubMix,
// except that one push in 4096 (about the measured 0.02 %) carries a
// one-off millisecond-scale delay.
func mixDelay(i int) Time {
	if i%4096 == 0 {
		return Millisecond + Time(i)
	}
	return oversubMix[i%len(oversubMix)]
}

// distinctDelay is the i-th delay of a stream in which no two delays
// repeat (an odd multiplier permutes the 32-bit range): the lane
// queue's worst case, one lane per event.
func distinctDelay(i int) Time { return Time(uint32(i) * 2654435761) }

// chains keeps a fixed number of events pending on an engine: each one
// reschedules itself on dispatch with the next delay of the stream.
type chains struct {
	e      *Engine
	delay  func(int) Time
	tick   func()
	i, end int
}

func newChains(e *Engine, n int, delay func(int) Time) *chains {
	c := &chains{e: e, delay: delay}
	c.tick = c.fire
	for k := 0; k < n; k++ {
		e.Schedule(Time(k), c.tick)
	}
	return c
}

func (c *chains) fire() {
	c.i++
	c.e.Schedule(c.delay(c.i), c.tick)
	if c.i == c.end {
		c.e.Stop()
	}
}

// run dispatches the next events events.
func (c *chains) run(events int) {
	c.end = c.i + events
	if _, err := c.e.Run(); err != nil {
		panic(err)
	}
}

// BenchmarkEngineDispatchMixed is engine dispatch on random-oversub's
// measured delay mix with 64 events pending; each op is one dispatch.
func BenchmarkEngineDispatchMixed(b *testing.B) {
	c := newChains(NewEngine(), 64, mixDelay)
	b.ReportAllocs()
	b.ResetTimer()
	c.run(b.N)
}

// BenchmarkEngineDispatchDistinct is engine dispatch when every delay is
// unique, so no push joins a pending lane; each op is one dispatch.
func BenchmarkEngineDispatchDistinct(b *testing.B) {
	c := newChains(NewEngine(), 64, distinctDelay)
	b.ReportAllocs()
	b.ResetTimer()
	c.run(b.N)
}

// TestEngineDispatchZeroAllocs pins steady-state dispatch on the mixed
// stream at zero allocations: once the lanes, the lane heap and the
// event free list have grown to the stream's working set, scheduling and
// dispatching allocate nothing, across Run exits included.
func TestEngineDispatchZeroAllocs(t *testing.T) {
	c := newChains(NewEngine(), 64, mixDelay)
	c.run(1 << 16)
	if a := testing.AllocsPerRun(50, func() { c.run(4096) }); a != 0 {
		t.Fatalf("steady-state dispatch allocates: %v allocs per 4096 events", a)
	}
}
