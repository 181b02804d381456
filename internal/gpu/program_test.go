package gpu

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// pagesFromBytes decodes a fuzz input into a page list rich in the
// shapes run coalescing must keep apart: each byte either extends the
// current run (< 0x80), skips ahead 2 to 5 pages (< 0xa0), repeats the
// last page (< 0xc0), steps back one page (< 0xd0), or jumps to a page
// named by its low bits.
func pagesFromBytes(data []byte) []mem.PageID {
	var pages []mem.PageID
	p := mem.PageID(1000)
	for i, b := range data {
		switch {
		case i == 0:
		case b < 0x80:
			p++
		case b < 0xa0:
			p += 2 + mem.PageID(b&3)
		case b < 0xc0:
		case b < 0xd0:
			p--
		default:
			p = mem.PageID(b&0x3f) * 7
		}
		pages = append(pages, p)
	}
	return pages
}

// FuzzPageRuns: coalescing any page list into runs and expanding the runs
// gives back the identical list, duplicates and order included, and the
// runs are maximal: no run continues where the previous one ends, and a
// one-page run is never followed by a higher page it could have paired
// with.
func FuzzPageRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0xb0, 0xb0, 0, 0xc5, 0, 0xff, 0, 0})
	f.Add([]byte{0, 0x80, 0x80, 0x80, 0, 0, 0x93, 0x93, 0xb0, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		pages := pagesFromBytes(data)
		// An op ahead of the list's must not disturb its span.
		var p Program
		p.Read(1, 7, 3)
		p.ReadPages(0, pages)
		op := p.Ops[1]
		runs := p.Runs[op.Lo:op.Hi]
		if got := p.AppendPages(nil, op); !slices.Equal(got, pages) || p.NumPages(op) != len(pages) {
			t.Fatalf("pages %v -> runs %v -> %v", pages, runs, got)
		}
		for i, r := range runs {
			if r.N == 0 {
				t.Fatalf("run %d of %v is empty", i, runs)
			}
			if r.Step == 1 || (r.N == 1 && r.Step != 0) {
				t.Fatalf("run %d of %v has a redundant step", i, runs)
			}
			if i == 0 {
				continue
			}
			prev := runs[i-1]
			if (prev.N == 1 && r.First > prev.First && r.First-prev.First <= math.MaxUint32) ||
				(prev.N > 1 && prev.First+mem.PageID(prev.N)*prev.stride() == r.First) {
				t.Fatalf("runs %d and %d of %v should be one run", i-1, i, runs)
			}
		}
	})
}

// TestProgramTypesHoldNoPointers keeps program storage noscan: an Op or
// PageRun that gained a pointer, slice, map or string would make the
// garbage collector scan every warp program again.
func TestProgramTypesHoldNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			return true
		case reflect.Array:
			return hasPointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, v := range []any{Op{}, PageRun{}} {
		if ty := reflect.TypeOf(v); hasPointers(ty) {
			t.Errorf("%v holds a pointer", ty)
		}
	}
	// Stride sits in the padding after Hi, and Step in the padding after
	// N; a wider field would grow every program by a quarter or a half.
	if n := unsafe.Sizeof(Op{}); n != 32 {
		t.Errorf("Op is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(PageRun{}); n != 16 {
		t.Errorf("PageRun is %d bytes, want 16", n)
	}
}

// loopCase is a fuzz input decoded into a loop and its surroundings: an
// optional op before the loop, a body of read, write, prefetch and
// compute ops over a small page universe (so passes overlap and warps
// collide), the pass count and strides, and an optional op after the
// loop.
type loopCase struct {
	lead, body, tail []byte // two bytes per op
	passes, stride   int
	// strides, when set, holds one stride per body op, and each memory
	// op of the body gets its own; otherwise every one gets stride.
	strides []int
	blocks  int
	// residentMask starts page p resident when bit p%8 is set.
	residentMask byte
}

// decodeLoopCase reads a 5-byte header (passes, stride, blocks, resident
// mask, shape) and then the ops, two bytes each. The shape byte's low
// bits give the body length (1-6 ops), bit 6 asks for a lead op and bit
// 7 for a tail op. When the stride byte's top bit is set, the bytes after
// the ops give the body's ops their own strides, one byte each (0 for a
// missing byte), so strides differ from op to op and may be 0.
func decodeLoopCase(data []byte) (loopCase, bool) {
	if len(data) < 7 {
		return loopCase{}, false
	}
	c := loopCase{
		passes:       1 + int(data[0]%6),
		stride:       int(data[1]&0x7f) % 40,
		blocks:       1 + int(data[2]%4),
		residentMask: data[3],
	}
	shape := data[4]
	ops := data[5:]
	take := func(n int) []byte {
		n = min(2*n, len(ops)/2*2)
		b := ops[:n]
		ops = ops[n:]
		return b
	}
	if shape&0x40 != 0 {
		c.lead = take(1)
	}
	c.body = take(1 + int(shape&0x3f)%6)
	if shape&0x80 != 0 {
		c.tail = take(1)
	}
	if data[1]&0x80 != 0 {
		c.strides = make([]int, len(c.body)/2)
		for i := range c.strides {
			if i < len(ops) {
				c.strides[i] = int(ops[i]) % 40
			}
		}
	}
	return c, len(c.body) > 0
}

// strideOf returns the stride of body op i.
func (c loopCase) strideOf(i int) int {
	if c.strides == nil {
		return c.stride
	}
	return c.strides[i]
}

// emitOps appends one op per byte pair, op i's pages shifted by shift(i).
// A read or write whose top three bits give a step of 2 or more touches
// pages that far apart, built from a page list, so loops also shift
// strided runs.
func emitOps(p *Program, ops []byte, shift func(i int) mem.PageID) {
	for i := 0; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		first := mem.PageID(b%64) + shift(i/2)
		n := 1 + int(b>>6)
		step := mem.PageID(a >> 5)
		var list []mem.PageID
		for k := 0; k < n; k++ {
			list = append(list, first+mem.PageID(k)*step)
		}
		switch a % 4 {
		case 0:
			if step < 2 {
				p.Read(int(a>>2)%3, first, n)
			} else {
				p.ReadPages(int(a>>2)%3, list)
			}
		case 1:
			if step < 2 {
				p.Write(RegMask(a>>2)&0b111, first, n)
			} else {
				p.WritePages(RegMask(a>>2)&0b111, list)
			}
		case 2:
			p.Prefetch(first, n)
		case 3:
			p.Compute(sim.Time(1+(a>>2))*sim.Microsecond, RegMask(b)&0b111)
		}
	}
}

// build returns the case's program, looped or unrolled. The looped one
// passes Loop one stride for the whole body, or one per memory op.
func (c loopCase) build(looped bool) Program {
	var p Program
	unshifted := func(int) mem.PageID { return 0 }
	emitOps(&p, c.lead, unshifted)
	if looped {
		mark := len(p.Ops)
		emitOps(&p, c.body, unshifted)
		if c.strides == nil {
			p.Loop(mark, c.passes, c.stride)
		} else {
			var strides []int
			for i := 0; i+1 < len(c.body); i += 2 {
				if c.body[i]%4 != 3 {
					strides = append(strides, c.strides[i/2])
				}
			}
			p.Loop(mark, c.passes, strides...)
		}
	} else {
		for pass := 0; pass < c.passes; pass++ {
			emitOps(&p, c.body, func(i int) mem.PageID { return mem.PageID(pass * c.strideOf(i)) })
		}
	}
	emitOps(&p, c.tail, func(int) mem.PageID { return mem.PageID((c.passes - 1) * c.stride) })
	return p
}

// TestLoopChecksAtBuild: Loop panics on a mark outside the program, a
// pass count or stride an op cannot hold, and a stride count that is
// neither one nor the body's memory-op count, so a malformed loop fails
// where it is built, not at block start. A valid call gives the body's
// memory ops their strides in order and leaves compute ops alone.
func TestLoopChecksAtBuild(t *testing.T) {
	body := func() Program {
		var p Program
		p.Read(0, 10, 2)
		p.Compute(sim.Microsecond, Regs(0))
		p.Write(Regs(0), 20, 2)
		return p
	}
	for name, loop := range map[string]func(p *Program){
		"mark past the end":    func(p *Program) { p.Loop(len(p.Ops)+1, 2, 1) },
		"negative mark":        func(p *Program) { p.Loop(-1, 2, 1) },
		"zero passes":          func(p *Program) { p.Loop(0, 0, 1) },
		"too many passes":      func(p *Program) { p.Loop(0, math.MaxUint32+1, 1) },
		"negative stride":      func(p *Program) { p.Loop(0, 2, -1) },
		"stride too wide":      func(p *Program) { p.Loop(0, 2, math.MaxUint32+1) },
		"no stride":            func(p *Program) { p.Loop(0, 2) },
		"too many strides":     func(p *Program) { p.Loop(0, 2, 1, 2, 3) },
		"one pass, mark past":  func(p *Program) { p.Loop(len(p.Ops)+1, 1, 1) },
		"one pass, bad counts": func(p *Program) { p.Loop(0, 1, 1, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Loop did not panic", name)
				}
			}()
			p := body()
			loop(&p)
		}()
	}
	p := body()
	p.Loop(0, 3, 5, 7)
	if got := []uint32{p.Ops[0].Stride, p.Ops[1].Stride, p.Ops[2].Stride}; !slices.Equal(got, []uint32{5, 0, 7}) {
		t.Errorf("per-op strides %v, want [5 0 7]", got)
	}
	if last := p.Ops[len(p.Ops)-1]; last != (Op{Kind: OpLoop, Lo: 0, Hi: 3}) {
		t.Errorf("loop op %+v", last)
	}
	p = body()
	p.Loop(0, 1, 5, 7)
	if len(p.Ops) != 3 || p.Ops[0].Stride != 0 {
		t.Errorf("a one-pass loop changed the program: %+v", p.Ops)
	}
}

// hashedCase is a fuzz input decoded into a hashed read and the loop case
// around it: the read's span, pass count, seed and register, and whether
// it loops alone, through ReadHashed's own loop, or heads a body of the
// loop case's ops that Loop repeats, so the body's other memory ops
// stride while the hashed op keeps its span.
type hashedCase struct {
	around      loopCase // its passes go unused: the read's count
	span, seed  uint64
	passes, dst int
	headsBody   bool
}

// decodeHashedCase reads a 6-byte header (span in three bytes, 1 to 2^20
// pages; passes in two, 2 to 512; a mode byte whose bit 0 puts the read
// at the head of the body and bits 1-2 pick its register), an 8-byte
// little-endian seed, and then a loop case for the ops around the read.
// Without a loop case the read runs alone in one block.
func decodeHashedCase(data []byte) (hashedCase, bool) {
	if len(data) < 14 {
		return hashedCase{}, false
	}
	h := hashedCase{
		span:      1 + (uint64(data[0])|uint64(data[1])<<8|uint64(data[2])<<16)%(1<<20),
		passes:    2 + (int(data[3])|int(data[4])<<8)%511,
		headsBody: data[5]&1 != 0,
		dst:       int(data[5]>>1) % 3,
	}
	for i := range 8 {
		h.seed |= uint64(data[6+i]) << (8 * i)
	}
	c, ok := decodeLoopCase(data[14:])
	if !ok {
		c = loopCase{blocks: 1}
	}
	h.around = c
	return h, true
}

// build returns the case's program, looped or unrolled. The unrolled
// twin draws its pages from a sim.RNG, one Uint64n(span) per pass.
func (h hashedCase) build(looped bool) Program {
	var p Program
	unshifted := func(int) mem.PageID { return 0 }
	emitOps(&p, h.around.lead, unshifted)
	const first = 600 // above the loop case's pages, below 2^20
	body := h.around.body
	if !h.headsBody {
		body = nil
	}
	if looped {
		mark := len(p.Ops)
		if !h.headsBody {
			p.ReadHashed(h.dst, first, h.span, h.seed, h.passes)
		} else {
			p.ReadHashed(h.dst, first, h.span, h.seed, 1)
			emitOps(&p, body, unshifted)
			p.Loop(mark, h.passes, h.around.stride)
		}
	} else {
		rng := sim.NewRNG(h.seed)
		for pass := 0; pass < h.passes; pass++ {
			p.Read(h.dst, first+mem.PageID(rng.Uint64n(h.span)), 1)
			emitOps(&p, body, func(int) mem.PageID { return mem.PageID(pass * h.around.stride) })
		}
	}
	emitOps(&p, h.around.tail, unshifted)
	return p
}

// TestReadHashedChecksAtBuild: ReadHashed panics on a span or pass count
// below 1 or past what an op holds. A valid call appends the hashed op,
// its span and seed in Stride and Dur, and an OpLoop over it, or the op
// alone for one pass. Loop over a body headed by a hashed op strides the
// body's other memory ops and leaves the hashed op's span alone.
func TestReadHashedChecksAtBuild(t *testing.T) {
	for name, build := range map[string]func(p *Program){
		"zero span":       func(p *Program) { p.ReadHashed(0, 10, 0, 1, 2) },
		"span too wide":   func(p *Program) { p.ReadHashed(0, 10, math.MaxUint32+1, 1, 2) },
		"zero passes":     func(p *Program) { p.ReadHashed(0, 10, 5, 1, 0) },
		"too many passes": func(p *Program) { p.ReadHashed(0, 10, 5, 1, math.MaxUint32+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ReadHashed did not panic", name)
				}
			}()
			var p Program
			build(&p)
		}()
	}
	var p Program
	p.Compute(sim.Microsecond, 0)
	p.ReadHashed(2, 10, math.MaxUint32, math.MaxUint64, 300)
	want := []Op{
		{Kind: OpCompute, Dur: sim.Microsecond},
		{Kind: OpRead, Dst: 2, Hashed: true, Lo: 0, Hi: 1, Stride: math.MaxUint32, Dur: -1},
		{Kind: OpLoop, Lo: 1, Hi: 300},
	}
	if !slices.Equal(p.Ops, want) || !slices.Equal(p.Runs, []PageRun{{First: 10, N: 1}}) {
		t.Errorf("hashed loop built as %+v over %+v", p.Ops, p.Runs)
	}
	if err := p.validate(); err != nil {
		t.Errorf("hashed loop: %v", err)
	}
	p = Program{}
	p.ReadHashed(0, 10, 7, 3, 1)
	if len(p.Ops) != 1 || !p.Ops[0].Hashed {
		t.Errorf("a one-pass hashed read built as %+v", p.Ops)
	}
	if err := p.validate(); err != nil {
		t.Errorf("a hashed read outside a loop: %v", err)
	}
	p.Read(1, 40, 2)
	p.Loop(0, 4, 9)
	if p.Ops[0].Stride != 7 || p.Ops[1].Stride != 9 {
		t.Errorf("Loop over a hashed head gave strides %d and %d, want span 7 kept and stride 9",
			p.Ops[0].Stride, p.Ops[1].Stride)
	}
}

// TestAppendKeepsRunsAndLoops: a program appended to another accesses
// its own pages, in order, after the first's, and its loop still repeats
// its own body.
func TestAppendKeepsRunsAndLoops(t *testing.T) {
	var p, q Program
	p.Read(0, 100, 3)
	p.Compute(sim.Microsecond, Regs(0))
	q.WritePages(0, []mem.PageID{7, 9, 11, 20})
	mark := len(q.Ops)
	q.Read(1, 40, 2)
	q.Compute(sim.Microsecond, Regs(1))
	q.Write(Regs(1), 60, 1)
	q.Loop(mark, 3, 5, 1)
	want := append(p.AppendAccesses(nil), q.AppendAccesses(nil)...)
	p.Append(&q)
	if got := p.AppendAccesses(nil); !slices.Equal(got, want) {
		t.Fatalf("appended program accesses %v, want %v", got, want)
	}
	if err := p.validate(); err != nil {
		t.Fatalf("appended program: %v", err)
	}
}

// loopRun is everything observable about one device run.
type loopRun struct {
	end      sim.Time
	executed uint64
	digest   uint64
	stats    Stats
	batches  [][]Fault
}

func runLoopCase(t *testing.T, c loopCase, prog Program) loopRun {
	t.Helper()
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	for p := mem.PageID(0); p < 512; p++ {
		if c.residentMask&(1<<(p%8)) != 0 {
			f.resident[p] = true
		}
	}
	if err := dev.LaunchKernel(Kernel{NumBlocks: c.blocks, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	end := run(t, eng)
	return loopRun{end: end, executed: eng.Executed(), digest: dev.Digest(), stats: dev.Stats(), batches: f.batches}
}

// FuzzLoopMatchesUnrolled: a program whose body is repeated by an OpLoop
// runs exactly as the same program with the body written out pass by
// pass: the same page stream, and on two fresh devices the same end
// time, engine event count, device digest, statistics and fault-buffer
// batches, record for record. Each input is also read as a hashed case,
// a hashed read alone or at the head of a body, checked against twins
// whose pages a sim.RNG draws.
func FuzzLoopMatchesUnrolled(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 2, 0, 5, 4, 0x41, 3, 0})
	f.Add([]byte{5, 8, 3, 0x0f, 0xc3, 2, 4, 0, 0x80, 1, 0x04, 3, 3, 6, 0xc2, 2, 1})
	f.Add([]byte{4, 16, 2, 0x55, 0x80, 0x40, 0xc4, 0x61, 0xc9, 3, 0, 0xa1, 0x45})
	// Per-op strides after a lead read: a read striding 12, the math, a
	// write striding 0 and a prefetch striding 7, over four passes.
	f.Add([]byte{3, 0x80 | 5, 2, 0x0f, 0x43, 0x00, 0x81, 0x04, 0x05, 0x03, 0x03, 0x01, 0x42, 0x02, 0x03, 12, 1, 0, 7})
	// A hashed read alone, 300 passes over 512 pages (Random's shape),
	// seed 11, in four blocks.
	f.Add([]byte{0x00, 0x02, 0x00, 0x2a, 0x01, 0x00, 11, 0, 0, 0, 0, 0, 0, 0, 2, 3, 3, 0, 0x80, 0, 0, 1, 0})
	// A hashed read heading a read, the math and a write striding 5,
	// 40 passes over 2^20 pages, a seed near 2^64.
	f.Add([]byte{0xff, 0xff, 0x0f, 38, 0, 0x01, 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		2, 5, 1, 0x0f, 0x02, 0x00, 0x05, 0x03, 0x03, 0x01, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeLoopCase(data); ok {
			checkTwins(t, c, c.build(true), c.build(false))
		}
		if h, ok := decodeHashedCase(data); ok {
			checkTwins(t, h.around, h.build(true), h.build(false))
		}
	})
}

// checkTwins fails t unless looped and unrolled expand to the same pages
// and run alike on two fresh devices.
func checkTwins(t *testing.T, c loopCase, looped, unrolled Program) {
	t.Helper()
	if got, want := looped.AppendAccesses(nil), unrolled.AppendAccesses(nil); !slices.Equal(got, want) {
		t.Fatalf("looped pages %v, unrolled %v", got, want)
	}
	if got, want := looped.Accesses(), unrolled.Accesses(); got != want {
		t.Fatalf("looped program makes %d accesses, unrolled %d", got, want)
	}
	a, b := runLoopCase(t, c, looped), runLoopCase(t, c, unrolled)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("looped run differs from unrolled:\n%+v\n%+v", a, b)
	}
}

// oracleTable is the pending-fault table the µTLB used before faultTable:
// a map by page plus a slice keeping insertion order. It survives here as
// the oracle faultTable is checked against.
type oracleTable struct {
	m     map[mem.PageID]*faultEntry
	order []mem.PageID
}

func (o *oracleTable) find(p mem.PageID) *faultEntry { return o.m[p] }

func (o *oracleTable) add(e *faultEntry) {
	o.m[e.page] = e
	o.order = append(o.order, e.page)
}

func (o *oracleTable) reset() {
	clear(o.m)
	o.order = o.order[:0]
}

// TestPendingTableMatchesOracle drives a capped table (the replayable
// faults, cap 56) and an uncapped one (prefetch faults) through random
// join, insert, cap-stall and replay sequences, in lockstep with the
// map+order oracle: every lookup must return the same entry, every cap
// check see the same size, and every replay walk the same entries in the
// same order.
func TestPendingTableMatchesOracle(t *testing.T) {
	const maxFaults = 56
	rng := sim.NewRNG(42)
	for round := 0; round < 200; round++ {
		var tabs [2]faultTable
		oracles := [2]oracleTable{{m: map[mem.PageID]*faultEntry{}}, {m: map[mem.PageID]*faultEntry{}}}
		// Small page universes force joins; large ones force growth.
		universe := uint64(8) << rng.Uint64n(8)
		steps := 1 + int(rng.Uint64n(3000))
		for s := 0; s < steps; s++ {
			i := int(rng.Uint64n(2)) // 0 capped, 1 uncapped
			tab, o := &tabs[i], &oracles[i]
			if rng.Uint64n(100) == 0 {
				// Replay: both walk the same entries in insertion order.
				for k, e := range tab.entries {
					if k >= len(o.order) || e != o.m[o.order[k]] {
						t.Fatalf("round %d step %d: replay entry %d differs", round, s, k)
					}
				}
				if tab.len() != len(o.order) {
					t.Fatalf("round %d step %d: %d entries, oracle %d", round, s, tab.len(), len(o.order))
				}
				tab.reset()
				o.reset()
				continue
			}
			p := mem.PageID(rng.Uint64n(universe)) * mem.PageID(1+rng.Uint64n(3))
			e := tab.find(p)
			if e != o.find(p) {
				t.Fatalf("round %d step %d: find(%d) = %p, oracle %p", round, s, p, e, o.find(p))
			}
			if e != nil {
				continue // a join
			}
			if i == 0 && tab.len() >= maxFaults {
				continue // a cap stall
			}
			e = &faultEntry{page: p}
			tab.add(e)
			o.add(e)
			if tab.len() != len(o.order) {
				t.Fatalf("round %d step %d: %d entries, oracle %d", round, s, tab.len(), len(o.order))
			}
		}
	}
}
