// Package gpu models the device side of the UVM system: streaming
// multiprocessors executing warp programs, the per-µTLB outstanding-fault
// limit, the per-SM fault-rate throttle, the GMMU fault buffer, and fault
// replay. The model reproduces the paper's §3 fault-generation mechanics:
// reads issue faults without blocking, scoreboard dependencies serialize
// dependent stores behind loads, a µTLB holds at most 56 outstanding
// faults, and software prefetch instructions bypass both limits.
package gpu

import (
	"fmt"
	"math"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// AccessKind classifies a memory access and the fault it may raise.
type AccessKind uint8

const (
	// AccessRead is a global load (LDG): non-blocking until a dependent
	// instruction needs the destination register.
	AccessRead AccessKind = iota
	// AccessWrite is a global store (STG): issued only after its operand
	// registers are ready (the Listing 2 scoreboard stall).
	AccessWrite
	// AccessPrefetch is a prefetch.global.L2-style access: it uses no
	// scoreboard register and bypasses the µTLB outstanding-fault limit
	// and the SM fault-rate throttle (§3.2, Figure 5).
	AccessPrefetch
	// AccessNotify is not a memory access but a counter-threshold
	// crossing surfaced to the driver through the fault buffer
	// (access-counter architecture). No µTLB entry is made and no access
	// waits on its replay.
	AccessNotify
)

// String returns a short name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessPrefetch:
		return "prefetch"
	case AccessNotify:
		return "notify"
	}
	return "unknown"
}

// OpKind identifies a warp program operation.
type OpKind uint8

const (
	// OpRead loads the op's pages, setting scoreboard register Dst.
	OpRead OpKind = iota
	// OpWrite stores to the op's pages after registers Deps are ready.
	OpWrite
	// OpPrefetch prefetches the op's pages with no scoreboard use.
	OpPrefetch
	// OpCompute occupies the warp for Dur after Deps are ready.
	OpCompute
	// OpLoop repeats ops [Lo, pc) until they have run Hi times in all,
	// shifting each memory op's pages by that op's Stride more on each
	// pass, or for a hashed op by the pass's draw (see Op.Hashed). A
	// strided op's first pass is the op as built; a hashed op's is not,
	// since pass 0 already shifts it by draw 0. The loop takes no
	// simulated time and schedules nothing, so a looped program runs
	// exactly as its unrolled twin. Loops do not nest.
	OpLoop
)

// NumRegs is the number of scoreboard registers a warp program may use:
// registers are 0..NumRegs-1, so a register set fits one RegMask.
const NumRegs = 64

// RegMask is a set of scoreboard registers, bit r for register r.
type RegMask uint64

// Regs returns the set of the given registers. A register outside
// 0..NumRegs-1 has no bit, so Regs panics on one.
func Regs(regs ...int) RegMask {
	var m RegMask
	for _, r := range regs {
		if r < 0 || r >= NumRegs {
			panic(fmt.Sprintf("gpu: scoreboard register %d outside 0..%d", r, NumRegs-1))
		}
		m |= 1 << r
	}
	return m
}

// PageRun is N evenly spaced pages: page k of the run is First + k·Step.
// Step 0, the zero value, means 1, so a run built without a step is N
// consecutive pages. Step sits in the padding after N, so a run stays 16
// bytes.
type PageRun struct {
	First mem.PageID
	N     uint32
	Step  uint32
}

// stride returns the page distance between consecutive pages of r.
func (r PageRun) stride() mem.PageID {
	if r.Step == 0 {
		return 1
	}
	return mem.PageID(r.Step)
}

// Op is one operation of a warp program. Memory operations are modeled at
// page granularity: the op touches the pages of its program's
// Runs[Lo:Hi] in order, the distinct pages the warp's (coalesced) lanes
// touch in this instruction, each shifted by pass·Stride on pass pass of
// the enclosing loop (none outside a loop). Op holds no pointers and
// fills 32 bytes, so program storage is never scanned by the garbage
// collector.
type Op struct {
	Kind OpKind
	// Dst is the scoreboard register written by OpRead; ignored otherwise.
	Dst int8
	// Hashed puts a memory op in hashed addressing mode: on pass pass of
	// the enclosing loop, pass 0 and an op outside every loop included,
	// its pages shift by sim.Draw(seed, pass) mod span instead of by
	// pass·Stride, so the op reads a pseudo-random page sequence from no
	// more storage than a strided op. A hashed op reuses two fields:
	// Stride holds the span (at least 1), and Dur, which no memory op
	// otherwise reads, holds the seed's bits. Hashed sits in the padding
	// after Dst, so the op stays 32 bytes.
	Hashed bool
	// Lo and Hi bound the op's span of Runs (memory ops). For OpLoop, Lo
	// is the first op of the body and Hi the number of passes.
	Lo, Hi uint32
	// Stride is a memory op's page shift per pass of the loop whose body
	// holds it; 0 outside a loop body. A hashed op's Stride is its span.
	Stride uint32
	// Deps are the registers that must be ready before OpWrite/OpCompute
	// issue.
	Deps RegMask
	Dur  sim.Time
}

// shift returns how far op's pages move on pass pass of the enclosing
// loop: pass·Stride, or a hashed op's draw for the pass reduced to its
// span. The device and the access expansion both take it from here.
func (op *Op) shift(pass uint32) mem.PageID {
	if op.Hashed {
		return op.hashedShift(pass)
	}
	return mem.PageID(pass) * mem.PageID(op.Stride)
}

// hashedShift is shift for a hashed op. It stays out of line so that
// warp.run, which inlines shift, grows by one call and not by the draw.
//
//go:noinline
func (op *Op) hashedShift(pass uint32) mem.PageID {
	return mem.PageID(sim.Draw(uint64(op.Dur), uint64(pass)) % uint64(op.Stride))
}

// Program is the instruction stream of one warp: its ops in program order
// and the page runs their memory ops name. The zero value is an empty
// program; the builder methods append to it.
type Program struct {
	Ops  []Op
	Runs []PageRun
}

// NewProgram returns an empty program with room for ops operations over
// runs page runs, so a generator that knows its size appends without
// growing.
func NewProgram(ops, runs int) Program {
	return Program{Ops: make([]Op, 0, ops), Runs: make([]PageRun, 0, runs)}
}

// Read appends an OpRead of pages [first, first+n), writing scoreboard
// register dst.
func (p *Program) Read(dst int, first mem.PageID, n int) {
	p.span(OpRead, regOf(dst), 0, first, n)
}

// ReadPages appends an OpRead of an arbitrary page list, writing
// scoreboard register dst. The pages are coalesced into runs of evenly
// spaced ascending pages in the given order, duplicates kept.
func (p *Program) ReadPages(dst int, pages []mem.PageID) {
	p.pages(Op{Kind: OpRead, Dst: regOf(dst)}, pages)
}

// Write appends an OpWrite of pages [first, first+n), issued once deps
// are ready.
func (p *Program) Write(deps RegMask, first mem.PageID, n int) {
	p.span(OpWrite, 0, deps, first, n)
}

// WritePages appends an OpWrite of an arbitrary page list, coalesced as
// ReadPages does, issued once deps are ready.
func (p *Program) WritePages(deps RegMask, pages []mem.PageID) {
	p.pages(Op{Kind: OpWrite, Deps: deps}, pages)
}

// Prefetch appends an OpPrefetch of pages [first, first+n).
func (p *Program) Prefetch(first mem.PageID, n int) {
	p.span(OpPrefetch, 0, 0, first, n)
}

// ReadHashed appends a one-page OpRead in hashed addressing mode, writing
// scoreboard register dst, and an OpLoop that runs it passes times: pass
// i reads page first + sim.Draw(seed, i) mod span, so the op reads the
// pages first + NewRNG(seed).Uint64n(span) draws in order. Unlike Loop's
// body, the op as built is not the first pass: its run holds first, the
// base every pass's draw is added to, and pass 0 reads first plus draw
// 0. With passes == 1 no OpLoop is appended and the lone op reads that
// one page. ReadHashed panics on a span or pass count below 1 or above
// what an op holds (math.MaxUint32).
func (p *Program) ReadHashed(dst int, first mem.PageID, span, seed uint64, passes int) {
	if span < 1 || span > math.MaxUint32 || passes < 1 || passes > math.MaxUint32 {
		panic(fmt.Sprintf("gpu: hashed read over a span of %d pages: %d passes", span, passes))
	}
	mark := len(p.Ops)
	p.span(OpRead, regOf(dst), 0, first, 1)
	op := &p.Ops[mark]
	op.Hashed, op.Stride, op.Dur = true, uint32(span), sim.Time(seed)
	if passes > 1 {
		loop := p.push(OpLoop)
		loop.Lo, loop.Hi = uint32(mark), uint32(passes)
	}
}

// Compute appends an OpCompute lasting dur once deps are ready.
func (p *Program) Compute(dur sim.Time, deps RegMask) {
	op := p.push(OpCompute)
	op.Dur, op.Deps = dur, deps
}

// Loop appends an OpLoop that repeats ops [mark, len(p.Ops)) until they
// have run passes times. mark is len(p.Ops) taken before the body was
// built, so the body as built is the first pass, but for a hashed op
// (see OpLoop); with passes == 1 there is nothing to repeat and Loop
// appends nothing. strides gives the body's
// memory ops their page shift per pass: one stride applies to every
// memory op, and k strides go to the body's k memory ops in order. A
// hashed op in the body is not one of them: it keeps its span. Loop
// panics on a mark outside the program, on a pass count or stride an op
// cannot hold, and on any other number of strides.
func (p *Program) Loop(mark, passes int, strides ...int) {
	if passes < 1 || passes > math.MaxUint32 || mark < 0 || mark > len(p.Ops) {
		panic(fmt.Sprintf("gpu: loop over ops from %d of %d: %d passes", mark, len(p.Ops), passes))
	}
	body := p.Ops[mark:]
	k := 0
	for _, op := range body {
		if op.strided() {
			k++
		}
	}
	if len(strides) != 1 && len(strides) != k {
		panic(fmt.Sprintf("gpu: loop over %d memory ops given %d strides", k, len(strides)))
	}
	for _, s := range strides {
		if s < 0 || s > math.MaxUint32 {
			panic(fmt.Sprintf("gpu: loop stride %d", s))
		}
	}
	if passes == 1 {
		return
	}
	m := 0
	for i := range body {
		if !body[i].strided() {
			continue
		}
		s := strides[0]
		if len(strides) > 1 {
			s = strides[m]
		}
		body[i].Stride = uint32(s)
		m++
	}
	p.Ops = append(p.Ops, Op{Kind: OpLoop, Lo: uint32(mark), Hi: uint32(passes)})
}

// Append appends q's ops and runs to p, so q runs as part of p. q's
// memory ops keep their runs and q's loops their bodies.
func (p *Program) Append(q *Program) {
	mark, base := uint32(len(p.Ops)), uint32(len(p.Runs))
	for _, op := range q.Ops {
		switch {
		case op.Kind.IsMemory():
			op.Lo += base
			op.Hi += base
		case op.Kind == OpLoop:
			op.Lo += mark
		}
		p.Ops = append(p.Ops, op)
	}
	p.Runs = append(p.Runs, q.Runs...)
}

// push appends an op of kind k and returns it to be filled in place.
// Builders fill an op's fields straight into Ops: an op built on the
// stack and then copied in is read back with wide loads that stall on
// the narrow stores that just built it, and generators build ops at
// every chunk.
func (p *Program) push(k OpKind) *Op {
	p.Ops = append(p.Ops, Op{})
	op := &p.Ops[len(p.Ops)-1]
	op.Kind = k
	return op
}

// span appends a memory op of kind k over pages [first, first+n); n <= 0
// is an op touching no page.
func (p *Program) span(k OpKind, dst int8, deps RegMask, first mem.PageID, n int) {
	lo := uint32(len(p.Runs))
	for n > 0 {
		c := min(n, math.MaxUint32)
		p.Runs = append(p.Runs, PageRun{First: first, N: uint32(c)})
		first += mem.PageID(c)
		n -= c
	}
	op := p.push(k)
	op.Dst, op.Deps, op.Lo, op.Hi = dst, deps, lo, uint32(len(p.Runs))
}

// pages appends op over an arbitrary page list, coalesced into runs in
// order. A run's first two pages fix its step, the distance between
// them, and each later page that lies that step past the previous one
// extends the run. A page that is not above the previous one starts a
// new run, so expanding the runs gives back exactly the list, repeats
// included.
func (p *Program) pages(op Op, pages []mem.PageID) {
	op.Lo = uint32(len(p.Runs))
	for i := 0; i < len(pages); {
		r := PageRun{First: pages[i], N: 1}
		if i+1 < len(pages) && pages[i+1] > pages[i] && pages[i+1]-pages[i] <= math.MaxUint32 {
			step := pages[i+1] - pages[i]
			j := i + 1
			for j < len(pages) && pages[j] == pages[j-1]+step && j-i < math.MaxUint32 {
				j++
			}
			r.N = uint32(j - i)
			if step > 1 {
				r.Step = uint32(step)
			}
		}
		p.Runs = append(p.Runs, r)
		i += int(r.N)
	}
	op.Hi = uint32(len(p.Runs))
	p.Ops = append(p.Ops, op)
}

// IsMemory reports whether k is a memory op, one that names a span of
// Runs: the kinds declared before OpCompute.
func (k OpKind) IsMemory() bool { return k <= OpPrefetch }

// strided reports whether op is a memory op whose loop shift is a stride.
func (op Op) strided() bool { return op.Kind.IsMemory() && !op.Hashed }

// NumPages returns how many page accesses one execution of op makes: the
// summed length of its runs, 0 for a non-memory op.
func (p *Program) NumPages(op Op) int {
	if !op.Kind.IsMemory() {
		return 0
	}
	n := 0
	for _, r := range p.Runs[op.Lo:op.Hi] {
		n += int(r.N)
	}
	return n
}

// AppendPages appends the pages of one unshifted execution of op, in
// access order, to dst; a non-memory op appends nothing. For a hashed op
// these are its base pages, which every pass shifts by its draw.
func (p *Program) AppendPages(dst []mem.PageID, op Op) []mem.PageID {
	return p.appendShifted(dst, op, 0)
}

func (p *Program) appendShifted(dst []mem.PageID, op Op, shift mem.PageID) []mem.PageID {
	if !op.Kind.IsMemory() {
		return dst
	}
	for _, r := range p.Runs[op.Lo:op.Hi] {
		step := r.stride()
		for k := uint32(0); k < r.N; k++ {
			dst = append(dst, r.First+shift+mem.PageID(k)*step)
		}
	}
	return dst
}

// Accesses returns how many page accesses the whole program makes, loops
// expanded.
func (p *Program) Accesses() int {
	n := 0
	for pc, op := range p.Ops {
		if op.Kind == OpLoop {
			body := 0
			for _, b := range p.Ops[op.Lo:pc] {
				body += p.NumPages(b)
			}
			n += (int(op.Hi) - 1) * body
			continue
		}
		n += p.NumPages(op)
	}
	return n
}

// AppendAccesses appends every page the program accesses to dst, in
// execution order with loops expanded.
func (p *Program) AppendAccesses(dst []mem.PageID) []mem.PageID {
	for pc, op := range p.Ops {
		if op.Kind != OpLoop {
			dst = p.appendShifted(dst, op, op.shift(0))
			continue
		}
		for pass := uint32(1); pass < op.Hi; pass++ {
			for _, b := range p.Ops[op.Lo:pc] {
				dst = p.appendShifted(dst, b, b.shift(pass))
			}
		}
	}
	return dst
}

// regOf narrows a register index for Op.Dst. An index no int8 holds
// becomes -1, which validate rejects like every register outside
// 0..NumRegs-1.
func regOf(r int) int8 {
	if r < math.MinInt8 || r > math.MaxInt8 {
		return -1
	}
	return int8(r)
}

// validate checks p once, before its warp runs: every op has a known
// kind, every read writes a register in 0..NumRegs-1, every memory op's
// span lies within Runs, every loop repeats a non-empty body before it
// at least twice, with no other loop inside that body, only memory ops
// inside a loop body have a stride, and only memory ops are hashed, each
// over a span of at least one page. It returns the first fault found,
// wrapping ErrBadProgram.
func (p *Program) validate() error {
	lastLoop := -1
	strided := -1 // the first strided memory op after lastLoop, if any
	for pc := range p.Ops {
		op := &p.Ops[pc]
		if op.Hashed && (!op.Kind.IsMemory() || op.Stride == 0) {
			return fmt.Errorf("pc %d: op of kind %d hashed over a span of %d pages: %w",
				pc, op.Kind, op.Stride, ErrBadProgram)
		}
		switch op.Kind {
		case OpCompute:
		case OpLoop:
			switch {
			case int(op.Lo) >= pc:
				return fmt.Errorf("pc %d: loop body starts at %d, not before the loop: %w",
					pc, op.Lo, ErrBadProgram)
			case op.Hi < 2:
				return fmt.Errorf("pc %d: loop of %d passes, need >= 2: %w", pc, op.Hi, ErrBadProgram)
			case int(op.Lo) <= lastLoop:
				return fmt.Errorf("pc %d: loop body [%d,%d) holds the loop at pc %d: %w",
					pc, op.Lo, pc, lastLoop, ErrBadProgram)
			case strided >= 0 && strided < int(op.Lo):
				return strayStride(strided)
			}
			lastLoop, strided = pc, -1
		case OpRead, OpWrite, OpPrefetch:
			if op.Kind == OpRead && (op.Dst < 0 || op.Dst >= NumRegs) {
				return fmt.Errorf("pc %d: scoreboard register %d outside 0..%d: %w",
					pc, op.Dst, NumRegs-1, ErrBadProgram)
			}
			if op.Lo > op.Hi || int(op.Hi) > len(p.Runs) {
				return fmt.Errorf("pc %d: runs [%d,%d) outside the program's %d: %w",
					pc, op.Lo, op.Hi, len(p.Runs), ErrBadProgram)
			}
			if op.Stride != 0 && !op.Hashed && strided < 0 {
				strided = pc
			}
		default:
			return fmt.Errorf("pc %d: unknown op kind %d: %w", pc, op.Kind, ErrBadProgram)
		}
	}
	if strided >= 0 {
		return strayStride(strided)
	}
	return nil
}

func strayStride(pc int) error {
	return fmt.Errorf("pc %d: stride outside every loop body: %w", pc, ErrBadProgram)
}

// Kernel is a grid of thread blocks. BlockProgram is called lazily, once
// per launched block, so large grids need not materialize up front. It is
// never called concurrently, so a generator may keep scratch storage
// from one block to the next; the programs it returns must not share
// that storage.
type Kernel struct {
	NumBlocks    int
	BlockProgram func(block int) []Program
}
