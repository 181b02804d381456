package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"guvm/internal/gpu"
	"guvm/internal/gpumem"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/uvm"
)

// probeSeed seeds every probe's inputs, so all runs time the same work.
const probeSeed = 0x5eed

// probe times one layer's public entry point on fixed inputs. newRound
// builds the inputs once and returns a round function that performs a
// number of ops and returns that number.
type probe struct {
	name     string
	newRound func() func() int
}

// Sinks keep the compiler from discarding probed results.
var (
	sinkSet  mem.PageSet
	sinkInt  int
	sinkTime sim.Time
)

var probes = []probe{
	{"sim.probe_dispatch", func() func() int {
		// 64 chains, each rescheduling itself with its own delay until the
		// round's event budget is spent: one op is one event dispatch.
		const chains, events = 64, 1 << 16
		return func() int {
			e := sim.NewEngine()
			left := events
			var tick func(any)
			tick = func(arg any) {
				if left == 0 {
					return
				}
				left--
				e.ScheduleArg(sim.Time(arg.(int))*sim.Microsecond, tick, arg)
			}
			for i := 1; i <= chains; i++ {
				e.ScheduleArg(sim.Time(i), tick, i)
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
			return events
		}
	}},
	{"uvm.probe_prefetch", func() func() int {
		// Half-populated residency plus a sparse faulted set per block.
		rng := sim.NewRNG(probeSeed)
		const sets = 256
		resident := make([]mem.PageSet, sets)
		faulted := make([]mem.PageSet, sets)
		for i := range resident {
			for p := 0; p < mem.PagesPerVABlock; p++ {
				switch r := rng.Uint64n(32); {
				case r < 16:
					resident[i].Set(p)
				case r == 16:
					faulted[i].Set(p)
				}
			}
		}
		return func() int {
			for i := range resident {
				sinkSet = uvm.PrefetchPages(&resident[i], &faulted[i], 0.51, true)
			}
			return sets
		}
	}},
	{"mem.probe_blockdir", func() func() int {
		// A 4 GiB layout (2048 VABlocks) with a random half populated; ops
		// alternate Get and Set on random blocks.
		rng := sim.NewRNG(probeSeed)
		const blocks, ops = 4 << 30 / mem.VABlockSize, 4096
		var d mem.BlockDir[int]
		for b := 0; b < blocks; b++ {
			if rng.Uint64n(2) == 0 {
				d.Set(mem.VABlockID(b), b)
			}
		}
		ids := make([]mem.VABlockID, ops)
		for i := range ids {
			ids[i] = mem.VABlockID(rng.Uint64n(blocks))
		}
		return func() int {
			for i, id := range ids {
				if i&1 == 0 {
					v, _ := d.Get(id)
					sinkInt += v
				} else {
					d.Set(id, i)
				}
			}
			return ops
		}
	}},
	{"hostos.probe_radix", func() func() int {
		// One op is an Insert, a Lookup and a Delete of a random page key.
		rng := sim.NewRNG(probeSeed)
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = rng.Uint64n(1 << 30)
		}
		return func() int {
			var t hostos.RadixTree
			for _, k := range keys {
				sinkInt += t.Insert(k, k)
			}
			for _, k := range keys {
				v, _ := t.Lookup(k)
				sinkInt += int(v)
			}
			for _, k := range keys {
				if t.Delete(k) {
					sinkInt++
				}
			}
			return len(keys)
		}
	}},
	{"interconnect.probe_transfer", func() func() int {
		// 64 transfers of 1 to 16 spans each, alternating direction.
		rng := sim.NewRNG(probeSeed)
		spans := make([][]mem.Span, 64)
		for i := range spans {
			var next mem.PageID
			for k := 0; k <= int(rng.Uint64n(16)); k++ {
				n := 1 + int(rng.Uint64n(32))
				next += mem.PageID(rng.Uint64n(8))
				spans[i] = append(spans[i], mem.Span{First: next, Count: n})
				next += mem.PageID(n)
			}
		}
		link := interconnect.NewLink(interconnect.DefaultPCIe3x16())
		return func() int {
			for i, s := range spans {
				sinkTime += link.TransferSpans(s, i&1 == 0)
			}
			return len(spans)
		}
	}},
	{"gpu.probe_faultbuffer", func() func() int {
		// One op is one fault pushed and fetched, in batches of 256.
		const batch = 256
		fb := gpu.NewFaultBuffer(batch)
		rng := sim.NewRNG(probeSeed)
		faults := make([]gpu.Fault, batch)
		for i := range faults {
			faults[i] = gpu.Fault{Page: mem.PageID(rng.Uint64n(1 << 20)), SM: i % 80, UTLB: i % 40}
		}
		return func() int {
			for _, f := range faults {
				fb.Push(f)
			}
			sinkInt += len(fb.Fetch(batch))
			return batch
		}
	}},
	{"gpumem.probe_alloc_release", func() func() int {
		// One op is one chunk allocated and released: a 1 GiB pool filled,
		// then drained in a random order.
		a := gpumem.New(1 << 30)
		n := a.Capacity()
		rng := sim.NewRNG(probeSeed)
		order := make([]int, n)
		for i := range order {
			j := int(rng.Uint64n(uint64(i + 1)))
			order[i], order[j] = order[j], i
		}
		ids := make([]gpumem.ChunkID, n)
		return func() int {
			for b := range ids {
				ids[b], _ = a.Alloc(mem.VABlockID(b))
			}
			for _, b := range order {
				a.Release(ids[b])
			}
			return n
		}
	}},
}

// runProbes times every probe for at least its minimum duration and
// returns <name>_ns (calibrated ns per op) and <name>_allocs (heap
// allocations per op) for each.
func runProbes(quick bool) map[string]float64 {
	minDur := 300 * time.Millisecond
	if quick {
		minDur = 20 * time.Millisecond
	}
	out := map[string]float64{}
	var cal calibrator
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	allocs := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	for _, p := range probes {
		round := p.newRound()
		round() // warm-up
		runtime.GC()
		scale := calibRef / cal.measure(3)
		ops := 0
		a0 := allocs()
		start := time.Now()
		for time.Since(start) < minDur {
			ops += round()
		}
		elapsed := time.Since(start)
		out[p.name+"_ns"] = float64(elapsed.Nanoseconds()) / float64(ops) * scale
		out[p.name+"_allocs"] = (allocs() - a0) / float64(ops)
	}
	return out
}
