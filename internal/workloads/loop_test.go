package workloads

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// The unrolled generators below write out every chunk of a sweep as its
// own ops, as every generator did before the looper folded its repeated
// chunks into looped passes. They survive as the oracles the looped
// generators are checked against.

func unrolledStream(w *Stream, bases []mem.Addr) gpu.Kernel {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	total := int(w.BytesPerArray / mem.PageSize)
	chunk := w.ChunkPages
	stride := w.Blocks * chunk
	return gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
		var prog, shadow gpu.Program
		for p := blk * chunk; p < total; p += stride {
			n := min(chunk, total-p)
			off := mem.PageID(p)
			prog.Read(0, b+off, n)
			prog.Read(1, c+off, n)
			prog.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
			prog.Write(0, a+off, n)
			shadow.Read(0, b+off, 1)
			shadow.Read(1, c+off, 1)
			shadow.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
		}
		progs := []gpu.Program{prog}
		for s := 0; s < w.ShadowWarps; s++ {
			progs = append(progs, shadow)
		}
		return progs
	}}
}

func unrolledSmooth(w *HPGMG, base mem.Addr, bytes uint64, blocks int) gpu.Kernel {
	totalPages := int(bytes / mem.PageSize)
	if blocks > totalPages {
		blocks = totalPages
	}
	per := (totalPages + blocks - 1) / blocks
	first := mem.PageOf(base)
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo, hi := blk*per, min((blk+1)*per, totalPages)
		if lo >= hi {
			return nil
		}
		var prog gpu.Program
		for p := lo; p < hi; p += w.ChunkPages {
			n := min(w.ChunkPages, hi-p)
			prog.Read(0, first+mem.PageID(p), n)
			prog.Compute(w.ComputePerChunk, gpu.Regs(0))
			prog.Write(0, first+mem.PageID(p), n)
		}
		return []gpu.Program{prog}
	}}
}

func unrolledRegular(w *Regular, bases []mem.Addr) gpu.Kernel {
	first := mem.PageOf(bases[0])
	total := int(w.Bytes / mem.PageSize)
	per := (total + w.Partitions - 1) / w.Partitions
	return gpu.Kernel{NumBlocks: w.Partitions, BlockProgram: func(b int) []gpu.Program {
		lo, hi := b*per, min((b+1)*per, total)
		if lo >= hi {
			return nil
		}
		var prog gpu.Program
		for p := lo; p < hi; p += w.ChunkPages {
			prog.Read(0, first+mem.PageID(p), min(w.ChunkPages, hi-p))
		}
		return []gpu.Program{prog}
	}}
}

// unrolledTransfer writes out every chunk of an HPGMG restriction or
// prolongation.
func unrolledTransfer(w *HPGMG, src, dst mem.Addr, srcBytes, dstBytes uint64, blocks int) gpu.Kernel {
	srcPages := int(srcBytes / mem.PageSize)
	dstPages := int(dstBytes / mem.PageSize)
	if blocks > dstPages {
		blocks = dstPages
	}
	perDst := (dstPages + blocks - 1) / blocks
	ratio := max(srcPages/dstPages, 1)
	s, d := mem.PageOf(src), mem.PageOf(dst)
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo, hi := blk*perDst, min((blk+1)*perDst, dstPages)
		if lo >= hi {
			return nil
		}
		var prog gpu.Program
		for p := lo; p < hi; p += w.ChunkPages {
			n := min(w.ChunkPages, hi-p)
			srcLo := p * ratio
			srcN := min(n*ratio, srcPages-srcLo)
			if srcN > 0 {
				prog.Read(0, s+mem.PageID(srcLo), srcN)
				prog.Compute(w.ComputePerChunk, gpu.Regs(0))
			}
			prog.Write(gpu.Regs(0), d+mem.PageID(p), n)
		}
		return []gpu.Program{prog}
	}}
}

// unrolledFFT writes out every chunk of every FFT pass.
func unrolledFFT(w *FFT, bases []mem.Addr) []gpu.Kernel {
	totalPages := int(w.arrayBytes() / mem.PageSize)
	passes := 0
	for n := totalPages; n > 1; n /= 2 {
		passes++
	}
	passes = min(passes, 8)
	var kernels []gpu.Kernel
	for p := 0; p < passes; p++ {
		src, dst := mem.PageOf(bases[p%2]), mem.PageOf(bases[(p+1)%2])
		stride := max(totalPages>>(p+1), w.ChunkPages)
		per := (totalPages/2 + w.Blocks - 1) / w.Blocks
		kernels = append(kernels, gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
			lo, hi := blk*per, min((blk+1)*per, totalPages/2)
			if lo >= hi {
				return nil
			}
			var prog gpu.Program
			for i := lo; i < hi; i += w.ChunkPages {
				n := min(w.ChunkPages, hi-i)
				loIdx := mem.PageID(i % stride)
				base := mem.PageID(i/stride) * mem.PageID(stride) * 2
				prog.Read(0, src+base+loIdx, n)
				prog.Read(1, src+base+loIdx+mem.PageID(stride), n)
				prog.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
				prog.Write(0, dst+mem.PageID(2*i), n)
				prog.Write(0, dst+mem.PageID(2*i)+mem.PageID(n), n)
			}
			return []gpu.Program{prog}
		}})
	}
	return kernels
}

// unrolledGaussSeidel writes out every chunk of every band of one sweep.
func unrolledGaussSeidel(w *GaussSeidel, bases []mem.Addr) gpu.Kernel {
	base := bases[0]
	rowBytes := uint64(w.Cols) * 4
	bands := (w.Rows + w.BandRows - 1) / w.BandRows
	perStripe := (bands + w.Stripes - 1) / w.Stripes
	return gpu.Kernel{NumBlocks: w.Stripes, BlockProgram: func(blk int) []gpu.Program {
		var prog gpu.Program
		for bi := blk * perStripe; bi < (blk+1)*perStripe && bi < bands; bi++ {
			r0 := bi * w.BandRows
			r1 := min(r0+w.BandRows, w.Rows)
			h0, h1 := max(r0-1, 0), min(r1+1, w.Rows)
			readFirst, readN := spanIn(base, uint64(h0)*rowBytes, uint64(h1-h0)*rowBytes)
			writeFirst, writeN := spanIn(base, uint64(r0)*rowBytes, uint64(r1-r0)*rowBytes)
			for lo := 0; lo < readN; lo += w.ChunkPages {
				prog.Read(0, readFirst+mem.PageID(lo), min(w.ChunkPages, readN-lo))
				prog.Compute(w.ComputePerChunk, gpu.Regs(0))
			}
			for lo := 0; lo < writeN; lo += w.ChunkPages {
				prog.Write(gpu.Regs(0), writeFirst+mem.PageID(lo), min(w.ChunkPages, writeN-lo))
			}
		}
		return []gpu.Program{prog}
	}}
}

// unrolledGEMM writes out every chunk of every k-step's panels as its own
// ops, as GEMM did before a k-step's evenly spaced chunks became one
// looped pass over strided runs.
func unrolledGEMM(w *GEMM, bases []mem.Addr) gpu.Kernel {
	a, b, c := bases[0], bases[1], bases[2]
	tiles := w.N / w.Tile
	return gpu.Kernel{NumBlocks: tiles * tiles, BlockProgram: func(blk int) []gpu.Program {
		ti, tj := blk/tiles, blk%tiles
		var prog gpu.Program
		var aPages, bPages []mem.PageID
		for k := 0; k < tiles; k++ {
			aPages = w.panelPages(aPages, a, ti*w.Tile, w.Tile, k*w.Tile, w.Tile)
			bPages = w.panelPages(bPages, b, k*w.Tile, w.Tile, tj*w.Tile, w.Tile)
			n := max(len(aPages), len(bPages))
			for lo := 0; lo < n; lo += w.ChunkPages {
				hi := lo + w.ChunkPages
				var deps gpu.RegMask
				if lo < len(aPages) {
					prog.ReadPages(0, aPages[lo:min(hi, len(aPages))])
					deps |= gpu.Regs(0)
				}
				if lo < len(bPages) {
					prog.ReadPages(1, bPages[lo:min(hi, len(bPages))])
					deps |= gpu.Regs(1)
				}
				prog.Compute(w.ComputePerChunk, deps)
			}
		}
		prog.WritePages(0, w.panelPages(aPages, c, ti*w.Tile, w.Tile, tj*w.Tile, w.Tile))
		return []gpu.Program{prog}
	}}
}

// step is one executed memory or compute op: what it is, its scoreboard
// use, and the pages it touches.
type step struct {
	Kind  gpu.OpKind
	Dst   int8
	Deps  gpu.RegMask
	Dur   sim.Time
	Pages []mem.PageID
}

// execute lists the ops a warp runs, loops expanded by their own rule
// (jump back to Lo until Hi passes have run; on pass k each memory op's
// pages lie k times its Stride further on), independent of
// Program.AppendAccesses.
func execute(p gpu.Program) []step {
	var steps []step
	var pass uint32
	for pc := 0; pc < len(p.Ops); {
		op := p.Ops[pc]
		if op.Kind == gpu.OpLoop {
			if pass++; pass < op.Hi {
				pc = int(op.Lo)
			} else {
				pass = 0
				pc++
			}
			continue
		}
		s := step{Kind: op.Kind, Dst: op.Dst, Deps: op.Deps, Dur: op.Dur}
		for _, pg := range p.AppendPages(nil, op) {
			s.Pages = append(s.Pages, pg+mem.PageID(pass)*mem.PageID(op.Stride))
		}
		steps = append(steps, s)
		pc++
	}
	return steps
}

// TestLoopedGeneratorsMatchUnrolled: for array sizes with and without a
// partial last chunk, blocks left with no chunk, and more blocks than
// chunks, every looped block program accesses the oracle's pages in the
// oracle's order and runs ops of the same kinds, registers, dependencies
// and durations.
func TestLoopedGeneratorsMatchUnrolled(t *testing.T) {
	type pair struct {
		name           string
		looped, oracle gpu.Kernel
	}
	var pairs []pair
	for _, c := range []struct{ pages, blocks int }{
		{2048, 16}, // every block's chunks are full
		{2049, 16}, // block 0 ends on a one-page chunk
		{2047, 16}, // the last block ends on a one-page chunk
		{9, 8},     // block 4 has only a partial chunk, blocks 5-7 none
		{10, 8},    // more blocks than chunks
		{1, 3},     // one page in all
	} {
		w := NewStream(uint64(c.pages)*mem.PageSize, c.blocks)
		w.ShadowWarps = 2
		bases := fakeBases(w.Allocs())
		pairs = append(pairs, pair{fmt.Sprintf("stream/%dp/%db", c.pages, c.blocks),
			w.Phases(bases)[0].Kernel, unrolledStream(w, bases)})
	}
	for _, c := range []struct{ pages, blocks int }{
		{4096, 4}, // 1024 pages a block: 85 full chunks and a 4-page tail
		{96, 4},   // 24 pages a block: two full chunks
		{9, 4},    // the last block gets no pages
		{5, 8},    // more blocks than pages: clamped to one page each
		{13, 1},   // one full chunk and a one-page tail
	} {
		w := NewHPGMG(64<<20, 1)
		base := mem.Addr(mem.VABlockSize)
		bytes := uint64(c.pages) * mem.PageSize
		pairs = append(pairs, pair{fmt.Sprintf("hpgmg-smooth/%dp/%db", c.pages, c.blocks),
			w.smoothKernel(new(looper), base, bytes, c.blocks), unrolledSmooth(w, base, bytes, c.blocks)})
	}
	for _, c := range []struct{ pages, parts int }{
		{4096, 32}, // 128 pages a partition: whole chunks
		{4100, 32}, // 129 pages a partition: a one-page tail
		{10, 16},   // more partitions than pages
		{7, 1},     // no full chunk at all
	} {
		w := NewRegular(uint64(c.pages)*mem.PageSize, c.parts)
		bases := fakeBases(w.Allocs())
		pairs = append(pairs, pair{fmt.Sprintf("regular/%dp/%dparts", c.pages, c.parts),
			w.Phases(bases)[0].Kernel, unrolledRegular(w, bases)})
	}
	// Restriction reads ratio source pages per destination page, so its
	// read and write advance by different strides. Prolongation's ratio
	// clamps to 1: it reads the coarse grid into the first pages of the
	// fine one, its last source chunk may be short, and every chunk past
	// the coarse grid only writes.
	for _, c := range []struct {
		name               string
		srcPages, dstPages int
		blocks             int
	}{
		{"restrict", 4096, 512, 4},        // ratio 8, 128 destination pages a block
		{"restrict-floor", 512, 512, 4},   // VABlock floor: ratio 1
		{"restrict-uneven", 1000, 125, 3}, // ratio 8, a short last block
		{"prolong", 512, 4096, 4},         // block 0 reads it all; blocks 1-3 only write
		{"prolong-short", 100, 800, 2},    // a 4-page last source chunk
		{"prolong-split", 700, 1000, 3},   // the coarse grid ends inside block 2
		{"tiny", 5, 7, 8},                 // more blocks than destination pages
	} {
		w := NewHPGMG(64<<20, 1)
		src, dst := mem.Addr(mem.VABlockSize), mem.Addr(64*mem.VABlockSize)
		sb, db := uint64(c.srcPages)*mem.PageSize, uint64(c.dstPages)*mem.PageSize
		pairs = append(pairs, pair{"hpgmg-" + c.name,
			w.transferKernel(new(looper), src, dst, sb, db, c.blocks), unrolledTransfer(w, src, dst, sb, db, c.blocks)})
	}
	// FFT at 2^20 elements (2,048 pages) on 16 blocks of 64 pages walks
	// pass strides of 1,024 pages down to 8: above, equal to and below a
	// block's span. 3,000 pages on 7 blocks leaves 215-page blocks ending
	// on a one-page chunk and a short last block; 16 pages clamp the
	// late strides to the chunk.
	for _, w := range []*FFT{NewFFT(1<<20, 16), NewFFT(3000*512, 7), NewFFT(16*512, 3), NewFFT(1<<20, 1)} {
		bases := fakeBases(w.Allocs())
		oracle := unrolledFFT(w, bases)
		for p, ph := range w.Phases(bases) {
			pairs = append(pairs, pair{fmt.Sprintf("fft/%dp/%db/pass%d", w.arrayBytes()/mem.PageSize, w.Blocks, p),
				ph.Kernel, oracle[p]})
		}
	}
	// Gauss-Seidel: the first band's halo clamps at row 0 and the last
	// band's at the last row; rows of 1.5 or 2.9 pages end band reads and
	// writes on partial chunks, and a short last band has fewer rows.
	for _, w := range []*GaussSeidel{
		NewGaussSeidel(1024, 1),
		{Rows: 100, Cols: 1536, Iterations: 1, BandRows: 32, Stripes: 3, ChunkPages: 16, ComputePerChunk: sim.Microsecond},
		{Rows: 70, Cols: 3000, Iterations: 1, BandRows: 8, Stripes: 4, ChunkPages: 5, ComputePerChunk: sim.Microsecond},
		{Rows: 3, Cols: 100, Iterations: 1, BandRows: 32, Stripes: 2, ChunkPages: 16, ComputePerChunk: sim.Microsecond},
	} {
		bases := fakeBases(w.Allocs())
		pairs = append(pairs, pair{fmt.Sprintf("gauss-seidel/%dx%d", w.Rows, w.Cols),
			w.Phases(bases)[0].Kernel, unrolledGaussSeidel(w, bases)})
	}
	// dgemm at N = 768 has rows of 1.5 pages, so its panels are unevenly
	// spaced and fall back to unrolled chunks; every other case loops
	// each k-step.
	for _, n := range []int{512, 768, 1024, 2048, 4096} {
		for _, w := range []*GEMM{NewSGEMM(n), NewDGEMM(n)} {
			bases := fakeBases(w.Allocs())
			pairs = append(pairs, pair{fmt.Sprintf("%s/%d", w.Name(), n),
				w.Phases(bases)[0].Kernel, unrolledGEMM(w, bases)})
		}
	}
	for _, c := range pairs {
		if c.looped.NumBlocks != c.oracle.NumBlocks {
			t.Fatalf("%s: %d blocks, oracle %d", c.name, c.looped.NumBlocks, c.oracle.NumBlocks)
		}
		for b := 0; b < c.oracle.NumBlocks; b++ {
			got, want := c.looped.BlockProgram(b), c.oracle.BlockProgram(b)
			if len(got) != len(want) {
				t.Fatalf("%s block %d: %d warps, oracle %d", c.name, b, len(got), len(want))
			}
			for i := range want {
				if g, w := got[i].AppendAccesses(nil), want[i].AppendAccesses(nil); !slices.Equal(g, w) {
					t.Fatalf("%s block %d warp %d: pages %v, oracle %v", c.name, b, i, g, w)
				}
				if g, w := got[i].Accesses(), want[i].Accesses(); g != w {
					t.Fatalf("%s block %d warp %d: %d accesses, oracle %d", c.name, b, i, g, w)
				}
				if g, w := execute(got[i]), execute(want[i]); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s block %d warp %d: ops\n%+v\noracle\n%+v", c.name, b, i, g, w)
				}
			}
		}
	}
}

// TestGEMMProgramFixedSize: at the sizes whose panels are evenly spaced, a
// GEMM block is one looped chunk per k-step — a read of each panel, the
// math and the loop, over one strided run per panel — plus the C write,
// however many chunks a panel holds.
func TestGEMMProgramFixedSize(t *testing.T) {
	for _, n := range []int{2048, 4096} {
		for _, w := range []*GEMM{NewSGEMM(n), NewDGEMM(n)} {
			k := w.Phases(fakeBases(w.Allocs()))[0].Kernel
			ksteps := w.N / w.Tile
			for _, blk := range []int{0, k.NumBlocks / 2, k.NumBlocks - 1} {
				prog := k.BlockProgram(blk)[0]
				if ops, runs := len(prog.Ops), len(prog.Runs); ops > 4*ksteps+1 || runs > 2*ksteps+1 {
					t.Errorf("%s/%d block %d: %d ops over %d runs, want at most %d over %d",
						w.Name(), n, blk, ops, runs, 4*ksteps+1, 2*ksteps+1)
				}
			}
		}
	}
}

// TestProgramsFixedSize: with repeated chunks folded into loops, HPGMG's
// block programs, smoothing and transfer alike, hold at most 10 ops at
// every fine-grid size; an FFT block has the same ops and runs at 2^20
// elements as at 2^24; a Gauss-Seidel band is at most 8 ops: a read
// loop, its partial chunk, a write loop and its partial chunk; and a
// Random block has the same ops and runs at 100 accesses as at 10,000.
func TestProgramsFixedSize(t *testing.T) {
	for _, mb := range []uint64{16, 256, 1024} {
		w := NewHPGMG(mb<<20, 32)
		for _, ph := range w.Phases(fakeBases(w.Allocs())) {
			for b := 0; b < ph.Kernel.NumBlocks; b++ {
				for _, p := range ph.Kernel.BlockProgram(b) {
					if len(p.Ops) > 10 {
						t.Fatalf("hpgmg %d MiB %s block %d: %d ops, want at most 10", mb, ph.Name, b, len(p.Ops))
					}
				}
			}
		}
	}
	sizes := func(w *FFT) [][2]int {
		var s [][2]int
		for _, ph := range w.Phases(fakeBases(w.Allocs())) {
			for b := 0; b < ph.Kernel.NumBlocks; b++ {
				for _, p := range ph.Kernel.BlockProgram(b) {
					s = append(s, [2]int{len(p.Ops), len(p.Runs)})
				}
			}
		}
		return s
	}
	if small, large := sizes(NewFFT(1<<20, 16)), sizes(NewFFT(1<<24, 16)); !slices.Equal(small, large) {
		t.Errorf("fft block (ops, runs) at 2^20 elements %v, at 2^24 %v", small, large)
	}
	for _, n := range []int{1024, 4096, 16384} {
		w := NewGaussSeidel(n, 1)
		bands := (w.Rows + w.BandRows - 1) / w.BandRows
		perStripe := (bands + w.Stripes - 1) / w.Stripes
		k := w.Phases(fakeBases(w.Allocs()))[0].Kernel
		for b := 0; b < k.NumBlocks; b++ {
			own := min(perStripe, max(bands-b*perStripe, 0))
			if ops := len(k.BlockProgram(b)[0].Ops); ops > 8*own {
				t.Errorf("gauss-seidel %d² stripe %d: %d ops over %d bands, want at most 8 a band", n, b, ops, own)
			}
		}
	}
	randomBlock := func(accesses int) gpu.Program {
		w := NewRandom(64<<20, 4, accesses, 11)
		return w.Phases(fakeBases(w.Allocs()))[0].Kernel.BlockProgram(1)[0]
	}
	small, large := randomBlock(100), randomBlock(10000)
	if len(small.Ops) != len(large.Ops) || len(small.Runs) != len(large.Runs) {
		t.Errorf("random block: %d ops over %d runs at 100 accesses, %d over %d at 10,000",
			len(small.Ops), len(small.Runs), len(large.Ops), len(large.Runs))
	}
}

// chunkSeq is a fuzz input decoded into a chunk sequence: segments of
// chunks, each chunk one of four shapes over two page origins A and B
// that every chunk of the segment moves by the segment's shift for each.
// A segment starts where the previous one left off, so a new segment may
// continue the previous run or break it by a change of shape, of shift,
// or a negative shift.
type chunkSeq struct {
	segs []chunkSeg
	n    int // chunks in all
}

type chunkSeg struct {
	shape          byte
	n              int
	a, b           mem.PageID // the segment's first chunk's origins
	shiftA, shiftB int64
}

// decodeChunkSeq reads up to 16 segments of four bytes: the shape, the
// chunk count (1-8) and the two shifts as signed bytes, where -128 stands
// for math.MaxUint32+1, one page too far for a loop, and 127 for
// math.MaxUint32, the farthest a loop may shift.
func decodeChunkSeq(data []byte) chunkSeq {
	shift := func(b byte) int64 {
		switch int8(b) {
		case -128:
			return math.MaxUint32 + 1
		case 127:
			return math.MaxUint32
		}
		return int64(int8(b))
	}
	var q chunkSeq
	a, b := mem.PageID(1)<<40, mem.PageID(1)<<41
	for i := 0; i+3 < len(data) && len(q.segs) < 16; i += 4 {
		s := chunkSeg{shape: data[i], n: 1 + int(data[i+1]%8), a: a, b: b,
			shiftA: shift(data[i+2]), shiftB: shift(data[i+3])}
		q.segs = append(q.segs, s)
		q.n += s.n
		a += mem.PageID(int64(s.n) * s.shiftA)
		b += mem.PageID(int64(s.n) * s.shiftB)
	}
	return q
}

// emit builds chunk c. Shape bits 0-1 pick the ops: a read, the math and
// a write; a read and the math; a lone write; or a strided read, a
// prefetch and the math. Bits 2-3 and 4-5 size A's and B's spans, bit 6
// picks the math's duration and bit 7 the read's register, so two shapes
// may differ in nothing but one op field.
func (q chunkSeq) emit(c int, p *gpu.Program) {
	s := q.segs[0]
	for _, s = range q.segs {
		if c < s.n {
			break
		}
		c -= s.n
	}
	a := s.a + mem.PageID(int64(c)*s.shiftA)
	b := s.b + mem.PageID(int64(c)*s.shiftB)
	na, nb := 1+int(s.shape>>2&3), 1+int(s.shape>>4&3)
	dur := sim.Time(1+s.shape>>6&1) * sim.Microsecond
	reg := int(s.shape >> 7)
	switch s.shape & 3 {
	case 0:
		p.Read(reg, a, na)
		p.Compute(dur, gpu.Regs(reg))
		p.Write(gpu.Regs(reg), b, nb)
	case 1:
		p.Read(reg, a, na)
		p.Compute(dur, gpu.Regs(reg))
	case 2:
		p.Write(gpu.Regs(reg), b, nb)
	case 3:
		list := make([]mem.PageID, na+1)
		for k := range list {
			list[k] = a + mem.PageID(3*k)
		}
		p.ReadPages(reg, list)
		p.Prefetch(b, nb)
		p.Compute(dur, gpu.Regs(reg))
	}
}

// FuzzLooperMatchesUnrolled: folding a chunk sequence with the looper
// gives a program that runs the ops and touches the pages of the chunks
// written out one after another, in no more ops. The looper is used twice
// in a row, so a second program built in its reused storage is checked
// too.
func FuzzLooperMatchesUnrolled(f *testing.F) {
	f.Add([]byte{0, 7, 12, 12})                             // one run
	f.Add([]byte{0, 3, 12, 5, 0, 3, 12, 5, 0, 4, 12, 6})    // a shift change
	f.Add([]byte{1, 5, 4, 0, 2, 5, 0, 9, 3, 2, 24, 1})      // shape changes
	f.Add([]byte{0, 4, 0xfc, 3, 3, 6, 0, 0, 0x14, 2, 0, 0}) // negative, zero and span changes
	f.Add([]byte{2, 3, 0, 0x7f, 2, 3, 0, 0x80, 0x22, 1, 0, 1})
	f.Add([]byte{0, 3, 12, 12, 0x40, 3, 12, 12, 0xc0, 3, 12, 12}) // duration, then register changes
	f.Fuzz(func(t *testing.T, data []byte) {
		q := decodeChunkSeq(data)
		var want gpu.Program
		for c := 0; c < q.n; c++ {
			q.emit(c, &want)
		}
		var l looper
		for round := 0; round < 2; round++ {
			l.fold(q.n, q.emit)
			got := l.take()
			if g, w := got.AppendAccesses(nil), want.AppendAccesses(nil); !slices.Equal(g, w) {
				t.Fatalf("round %d: looped pages %v, unrolled %v", round, g, w)
			}
			if g, w := execute(got), execute(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d: looped ops\n%+v\nunrolled\n%+v", round, g, w)
			}
			if len(got.Ops) > len(want.Ops) {
				t.Fatalf("round %d: %d ops looped, %d unrolled", round, len(got.Ops), len(want.Ops))
			}
		}
	})
}

// TestLooperFolds pins what the looper folds: a run of chunks each
// shifted by a fixed distance per memory op, zero and unequal distances
// included, becomes one chunk and a loop; a change of shape or shift
// starts a new run; a negative shift or one past math.MaxUint32 pages
// never loops.
func TestLooperFolds(t *testing.T) {
	seg := func(shape byte, n int, shiftA, shiftB byte) []byte {
		return []byte{shape, byte(n - 1), shiftA, shiftB}
	}
	for _, c := range []struct {
		name string
		data []byte
		ops  int
	}{
		{"one run", seg(0, 8, 12, 12), 4},
		{"unequal shifts", seg(0, 8, 96, 12), 4},
		{"zero shift", seg(3, 5, 0, 0), 4},
		{"widest shift", seg(2, 3, 0, 0x7f), 2},
		{"one chunk", seg(0, 1, 12, 12), 3},
		{"shape change", append(seg(0, 4, 12, 12), seg(1, 4, 12, 0)...), 4 + 3},
		{"shift change", append(seg(0, 4, 12, 12), seg(0, 4, 24, 12)...), 4 + 4},
		{"duration change", append(seg(0, 4, 12, 12), seg(0x40, 4, 12, 12)...), 4 + 4},
		{"register change", append(seg(1, 4, 12, 0), seg(0x81, 4, 12, 0)...), 3 + 3},
		{"negative shift", seg(2, 4, 0, 0xff), 4},
		{"too wide a shift", seg(2, 3, 0, 0x80), 3},
	} {
		q := decodeChunkSeq(c.data)
		var l looper
		l.fold(q.n, q.emit)
		if p := l.take(); len(p.Ops) != c.ops {
			t.Errorf("%s: %d ops %+v, want %d", c.name, len(p.Ops), p.Ops, c.ops)
		}
	}
}

// BenchmarkBlockPrograms times block program generation, the looper's
// walk over every chunk included: one 256 MiB Stream block (two programs
// of 1,366 chunks each) and every block of every phase of a 256 MiB
// HPGMG run.
func BenchmarkBlockPrograms(b *testing.B) {
	b.Run("stream-block", func(b *testing.B) {
		w := NewStream(256<<20, 24)
		k := w.Phases(fakeBases(w.Allocs()))[0].Kernel
		for b.Loop() {
			k.BlockProgram(3)
		}
	})
	b.Run("hpgmg-run", func(b *testing.B) {
		w := NewHPGMG(256<<20, 32)
		phases := w.Phases(fakeBases(w.Allocs()))
		for b.Loop() {
			for _, ph := range phases {
				for blk := 0; blk < ph.Kernel.NumBlocks; blk++ {
					ph.Kernel.BlockProgram(blk)
				}
			}
		}
	})
}

// randomOracle builds block b of w as Random.Phases did before hashed
// loops: one single-page read per access, its page drawn from a sim.RNG
// seeded with the block's seed. It survives as the oracle the hashed
// loop is checked against.
func randomOracle(w *Random, bases []mem.Addr, b int) gpu.Program {
	first := mem.PageOf(bases[0])
	totalPages := w.Bytes / mem.PageSize
	rng := sim.NewRNG(w.Seed + uint64(b)*0x9e37)
	prog := gpu.NewProgram(w.AccessesPerBlk, w.AccessesPerBlk)
	for range w.AccessesPerBlk {
		prog.Read(0, first+mem.PageID(rng.Uint64n(totalPages)), 1)
	}
	return prog
}

// FuzzRandomMatchesRNG: every block of a Random workload, one hashed read
// looped over the block's accesses, reads the pages the per-access
// sim.RNG oracle draws, in the oracle's order, into the oracle's
// register, for arrays of one page to 2^32-1 pages with or without a
// partial page, 1 to 64 blocks, 0 to 2,047 accesses and any seed.
func FuzzRandomMatchesRNG(f *testing.F) {
	f.Add(uint64(512<<20), uint16(160), uint16(300), uint64(11)) // the random-oversub input
	f.Add(uint64(32<<20), uint16(40), uint16(100), uint64(11))   // the batch-log golden's
	f.Add(uint64(mem.PageSize), uint16(3), uint16(7), uint64(math.MaxUint64))
	f.Add(uint64(5*mem.PageSize+1), uint16(1), uint16(0), uint64(0))
	f.Add(uint64(math.MaxUint64), uint16(2), uint16(2047), uint64(math.MaxUint64-0x9e37))
	f.Fuzz(func(t *testing.T, bytes uint64, blocks, accesses uint16, seed uint64) {
		pages := max(1, bytes/mem.PageSize%(math.MaxUint32+1))
		w := NewRandom(pages*mem.PageSize+bytes%mem.PageSize, 1+int(blocks%64), int(accesses%2048), seed)
		bases := fakeBases(w.Allocs())
		k := w.Phases(bases)[0].Kernel
		for b := 0; b < w.Blocks; b++ {
			got, want := k.BlockProgram(b)[0], randomOracle(w, bases, b)
			if g, o := got.AppendAccesses(nil), want.AppendAccesses(nil); !slices.Equal(g, o) {
				t.Fatalf("%d pages, seed %#x, block %d: pages %v, oracle %v", pages, seed, b, g, o)
			}
			if g, o := got.Accesses(), want.Accesses(); g != o {
				t.Fatalf("%d pages, seed %#x, block %d: %d accesses, oracle %d", pages, seed, b, g, o)
			}
			for _, op := range got.Ops {
				if op.Kind != gpu.OpLoop && (op.Kind != gpu.OpRead || op.Dst != 0) {
					t.Fatalf("block %d: op %+v, want reads into register 0", b, op)
				}
			}
		}
	})
}
