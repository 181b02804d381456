package workloads

import (
	"math"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// looper builds a warp program out of chunks, the repeated steps of a
// sweep, and folds each run of consecutive chunks that repeat the first
// one page-shifted into that first chunk and a gpu.OpLoop. Its programs
// keep their storage from one block to the next, so a generator keeps
// one looper for the programs of its kernels and building a block
// allocates only the program take returns. A looper is not safe for
// concurrent use.
type looper struct {
	// prog is the program being built. Ops that belong to no chunk may
	// be appended to it directly.
	prog gpu.Program
	// head is the current run's first chunk and next the chunk being
	// compared with it.
	head, next gpu.Program
	// passes counts the chunks of the current run, 0 before the first.
	passes int
	// Once the run has two chunks, shifts holds the page distance by
	// which each memory op of head advances per chunk, delta the same
	// distance for each of head's runs, and want the first page each run
	// of the run's next chunk must have.
	shifts      []int
	delta, want []mem.PageID
}

// fold appends chunks 0..n-1 to the program being built. emit(c, p)
// builds chunk c into the empty program p out of reads, writes,
// prefetches and computes. Each maximal run of consecutive chunks that
// match the run's first chunk op for op, except that every run of a
// memory op lies a fixed non-negative distance per chunk further on (at
// most math.MaxUint32 pages), is appended once and looped over the run;
// a chunk that starts no such run is appended as it is. Runs are taken
// greedily, each as long as it goes.
func (l *looper) fold(n int, emit func(c int, p *gpu.Program)) {
	l.passes = 0
	for c := 0; c < n; c++ {
		l.next.Ops, l.next.Runs = l.next.Ops[:0], l.next.Runs[:0]
		emit(c, &l.next)
		if l.passes > 0 && l.extends() {
			l.passes++
			continue
		}
		l.flush()
		l.head, l.next = l.next, l.head
		l.passes = 1
	}
	l.flush()
	l.passes = 0
}

// extends reports whether next continues the current run: it has head's
// ops, and its runs are head's, each want pages on. Both chunks were
// built from empty programs, so matching ops name the same span of runs.
// A run's second chunk instead fixes the run's shifts.
func (l *looper) extends() bool {
	h, x := &l.head, &l.next
	if len(x.Ops) != len(h.Ops) || len(x.Runs) != len(h.Runs) || l.passes == math.MaxUint32 {
		return false
	}
	xops := x.Ops[:len(h.Ops)]
	for i := range h.Ops {
		// Field by field, as the builders store them: a wide compare of
		// ops just built stalls on those narrow stores.
		a, b := &h.Ops[i], &xops[i]
		if a.Kind != b.Kind || a.Dst != b.Dst || a.Hashed != b.Hashed || a.Lo != b.Lo || a.Hi != b.Hi ||
			a.Stride != b.Stride || a.Deps != b.Deps || a.Dur != b.Dur {
			return false
		}
	}
	if l.passes == 1 {
		return l.fixShifts()
	}
	xr, want, delta := x.Runs[:len(h.Runs)], l.want[:len(h.Runs)], l.delta[:len(h.Runs)]
	for j := range h.Runs {
		a, b := &h.Runs[j], &xr[j]
		if b.First != want[j] || a.N != b.N || a.Step != b.Step {
			return false
		}
	}
	for j := range want {
		want[j] += delta[j]
	}
	return true
}

// fixShifts reports whether next, whose ops match head's, can be a run's
// second chunk: every run of each memory op lies one common non-negative
// distance, at most math.MaxUint32 pages, past head's, and N and Step
// match. If so it records the distances and the pages a third chunk's
// runs must start at.
func (l *looper) fixShifts() bool {
	h, x := &l.head, &l.next
	l.shifts, l.delta, l.want = l.shifts[:0], l.delta[:0], l.want[:0]
	for _, op := range h.Ops {
		if !op.Kind.IsMemory() {
			continue
		}
		var d mem.PageID
		for j := op.Lo; j < op.Hi; j++ {
			a, b := &h.Runs[j], &x.Runs[j]
			if a.N != b.N || a.Step != b.Step || b.First < a.First {
				return false
			}
			if j == op.Lo {
				d = b.First - a.First
			}
			if b.First-a.First != d || d > math.MaxUint32 {
				return false
			}
			l.delta = append(l.delta, d)
			l.want = append(l.want, b.First+d)
		}
		l.shifts = append(l.shifts, int(d))
	}
	return true
}

// flush appends the current run: its first chunk, looped over the run's
// chunks when it has more than one.
func (l *looper) flush() {
	if l.passes == 0 {
		return
	}
	mark := len(l.prog.Ops)
	l.prog.Append(&l.head)
	if l.passes > 1 {
		l.prog.Loop(mark, l.passes, l.shifts...)
	}
}

// take returns the program built since the last take, in storage of
// exactly its size, and starts the next program empty.
func (l *looper) take() gpu.Program {
	p := gpu.NewProgram(len(l.prog.Ops), len(l.prog.Runs))
	p.Ops = append(p.Ops, l.prog.Ops...)
	p.Runs = append(p.Runs, l.prog.Runs...)
	l.prog.Ops, l.prog.Runs = l.prog.Ops[:0], l.prog.Runs[:0]
	return p
}
