package workloads

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// The unrolled generators below write out every chunk of a sweep as its
// own ops, as Stream, HPGMG's smoother and Regular did before their full
// chunks became one looped pass. They survive as the oracles the looped
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
// (jump back to Lo until Hi passes have run, Stride pages further each
// pass), independent of Program.AppendAccesses.
func execute(p gpu.Program) []step {
	var steps []step
	var pass uint32
	var shift mem.PageID
	for pc := 0; pc < len(p.Ops); {
		op := p.Ops[pc]
		if op.Kind == gpu.OpLoop {
			if pass++; pass < op.Hi {
				shift += mem.PageID(op.Stride)
				pc = int(op.Lo)
			} else {
				pass, shift = 0, 0
				pc++
			}
			continue
		}
		s := step{Kind: op.Kind, Dst: op.Dst, Deps: op.Deps, Dur: op.Dur}
		for _, pg := range p.AppendPages(nil, op) {
			s.Pages = append(s.Pages, pg+shift)
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
			w.smoothKernel(base, bytes, c.blocks), unrolledSmooth(w, base, bytes, c.blocks)})
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
