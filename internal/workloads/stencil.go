package workloads

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// GaussSeidel models a red-black Gauss-Seidel smoother over a 2-D grid:
// repeated sweeps where each thread block owns a band of rows, reads the
// band plus halo rows, and writes the band in place. The grid is reused
// every iteration — high spatial locality per VABlock (Table 3: 2.3
// VABlocks/batch, 22 faults each) and, under oversubscription, the
// sweep-eviction-prefetch interplay of Figure 16.
type GaussSeidel struct {
	// Rows and Cols define the grid of float32 cells.
	Rows, Cols int
	// Iterations is the number of full sweeps.
	Iterations int
	// BandRows is the row count processed per dependent step.
	BandRows int
	// Stripes is the thread-block count; Gauss-Seidel's row-order data
	// dependence keeps concurrency low (each stripe sweeps its bands
	// sequentially), concentrating each batch in a couple of VABlocks
	// (Table 3: 2.31 VABlocks/batch).
	Stripes int
	// ChunkPages is the coalesced page window per step.
	ChunkPages int
	// ComputePerChunk paces the stencil math per chunk.
	ComputePerChunk sim.Time
}

// NewGaussSeidel returns a square Gauss-Seidel smoother.
func NewGaussSeidel(n, iterations int) *GaussSeidel {
	return &GaussSeidel{
		Rows: n, Cols: n, Iterations: iterations,
		BandRows: 32, Stripes: 3, ChunkPages: 16,
		ComputePerChunk: 15 * sim.Microsecond,
	}
}

// Name implements Workload.
func (w *GaussSeidel) Name() string { return "gauss-seidel" }

// GridBytes returns the grid footprint.
func (w *GaussSeidel) GridBytes() uint64 { return uint64(w.Rows) * uint64(w.Cols) * 4 }

// Allocs implements Workload.
func (w *GaussSeidel) Allocs() []Alloc {
	return []Alloc{{Name: "grid", Bytes: w.GridBytes(), HostInit: true, HostThreads: 1}}
}

// Phases implements Workload.
func (w *GaussSeidel) Phases(bases []mem.Addr) []Phase {
	base := bases[0]
	rowBytes := uint64(w.Cols) * 4
	bands := (w.Rows + w.BandRows - 1) / w.BandRows
	perStripe := (bands + w.Stripes - 1) / w.Stripes
	chunk := w.ChunkPages
	var l looper
	var phases []Phase
	for it := 0; it < w.Iterations; it++ {
		phases = append(phases, Phase{
			Name: "sweep",
			Kernel: gpu.Kernel{NumBlocks: w.Stripes, BlockProgram: func(blk int) []gpu.Program {
				for bi := blk * perStripe; bi < (blk+1)*perStripe && bi < bands; bi++ {
					r0 := bi * w.BandRows
					r1 := r0 + w.BandRows
					if r1 > w.Rows {
						r1 = w.Rows
					}
					// Halo: one row above and below.
					h0, h1 := r0-1, r1+1
					if h0 < 0 {
						h0 = 0
					}
					if h1 > w.Rows {
						h1 = w.Rows
					}
					readFirst, readN := spanIn(base, uint64(h0)*rowBytes, uint64(h1-h0)*rowBytes)
					writeFirst, writeN := spanIn(base, uint64(r0)*rowBytes, uint64(r1-r0)*rowBytes)
					// Row-order dependence: each chunk's loads feed
					// the stencil math before the next chunk issues.
					l.fold((readN+chunk-1)/chunk, func(c int, p *gpu.Program) {
						lo := c * chunk
						p.Read(0, readFirst+mem.PageID(lo), min(chunk, readN-lo))
						p.Compute(w.ComputePerChunk, gpu.Regs(0))
					})
					l.fold((writeN+chunk-1)/chunk, func(c int, p *gpu.Program) {
						lo := c * chunk
						p.Write(gpu.Regs(0), writeFirst+mem.PageID(lo), min(chunk, writeN-lo))
					})
				}
				return []gpu.Program{l.take()}
			}},
		})
	}
	return phases
}

// HPGMG models the geometric multigrid proxy app (HPGMG-FV): V-cycles over
// a hierarchy of grid levels — smooth on the fine level, restrict down the
// hierarchy, smooth the coarse levels, prolong back up — with CPU-side
// work between cycles touching the fine grid from OpenMP-style threads.
// That host phase is the Figure-11 mechanism: multithreaded touching makes
// the driver's unmap_mapping_range calls far more expensive.
type HPGMG struct {
	// FineBytes is the finest-level grid footprint.
	FineBytes uint64
	// Levels is the V-cycle depth.
	Levels int
	// VCycles is how many V-cycles to run.
	VCycles int
	// HostThreads is the OpenMP-style CPU thread count for the host
	// phases between cycles (1 in Figure 11a, many in 11b).
	HostThreads int
	// HostTouchFraction is the share of the fine grid the host phase
	// re-touches between cycles.
	HostTouchFraction float64
	// SmoothsPerLevel is the smoother applications per level visit.
	SmoothsPerLevel int
	// Blocks is the thread-block count on the finest level. Box-order
	// dependences keep it low, concentrating batches in few VABlocks.
	Blocks int
	// ChunkPages is the coalesced page window per dependent step.
	ChunkPages int
	// ComputePerChunk paces the per-box stencil math.
	ComputePerChunk sim.Time
}

// NewHPGMG returns an HPGMG proxy with the given fine-level footprint.
func NewHPGMG(fineBytes uint64, hostThreads int) *HPGMG {
	return &HPGMG{
		FineBytes:         fineBytes,
		Levels:            4,
		VCycles:           3,
		HostThreads:       hostThreads,
		HostTouchFraction: 0.5,
		SmoothsPerLevel:   2,
		Blocks:            4,
		ChunkPages:        12,
		ComputePerChunk:   12 * sim.Microsecond,
	}
}

// Name implements Workload.
func (w *HPGMG) Name() string { return "hpgmg" }

// levelBytes returns level l's footprint: each coarser level is 1/8 the
// size (3-D refinement), floored at one VABlock.
func (w *HPGMG) levelBytes(l int) uint64 {
	b := w.FineBytes >> (3 * uint(l))
	if b < mem.VABlockSize {
		b = mem.VABlockSize
	}
	return b
}

// Allocs implements Workload: one grid per level, fine level host-
// initialized by HostThreads.
func (w *HPGMG) Allocs() []Alloc {
	allocs := make([]Alloc, w.Levels)
	for l := 0; l < w.Levels; l++ {
		allocs[l] = Alloc{
			Name:        "level",
			Bytes:       w.levelBytes(l),
			HostInit:    true,
			HostThreads: w.HostThreads,
		}
	}
	return allocs
}

// smoothKernel sweeps a level: blocks stream bands with read-modify-write.
// Its block programs are built with l.
func (w *HPGMG) smoothKernel(l *looper, base mem.Addr, bytes uint64, blocks int) gpu.Kernel {
	totalPages := int(bytes / mem.PageSize)
	if blocks > totalPages {
		blocks = totalPages
	}
	per := (totalPages + blocks - 1) / blocks
	first := mem.PageOf(base)
	chunk := w.ChunkPages
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo := blk * per
		hi := lo + per
		if hi > totalPages {
			hi = totalPages
		}
		if lo >= hi {
			return nil
		}
		l.fold((hi-lo+chunk-1)/chunk, func(c int, p *gpu.Program) {
			at := lo + c*chunk
			n := min(chunk, hi-at)
			p.Read(0, first+mem.PageID(at), n)
			p.Compute(w.ComputePerChunk, gpu.Regs(0))
			p.Write(0, first+mem.PageID(at), n)
		})
		return []gpu.Program{l.take()}
	}}
}

// transferKernel reads src and writes dst (restriction or prolongation),
// its block programs built with l. Each chunk of ChunkPages destination
// pages reads ratio source pages per destination page and then writes,
// so the read and the write advance by different strides; chunks past
// the end of src only write.
func (w *HPGMG) transferKernel(l *looper, src, dst mem.Addr, srcBytes, dstBytes uint64, blocks int) gpu.Kernel {
	srcPages := int(srcBytes / mem.PageSize)
	dstPages := int(dstBytes / mem.PageSize)
	if blocks > dstPages {
		blocks = dstPages
	}
	perDst := (dstPages + blocks - 1) / blocks
	ratio := srcPages / dstPages
	if ratio < 1 {
		ratio = 1
	}
	s, d := mem.PageOf(src), mem.PageOf(dst)
	chunk := w.ChunkPages
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo := blk * perDst
		hi := lo + perDst
		if hi > dstPages {
			hi = dstPages
		}
		if lo >= hi {
			return nil
		}
		l.fold((hi-lo+chunk-1)/chunk, func(c int, prog *gpu.Program) {
			p := lo + c*chunk
			n := min(chunk, hi-p)
			srcLo := p * ratio
			srcN := min(n*ratio, srcPages-srcLo)
			if srcN > 0 {
				prog.Read(0, s+mem.PageID(srcLo), srcN)
				prog.Compute(w.ComputePerChunk, gpu.Regs(0))
			}
			prog.Write(gpu.Regs(0), d+mem.PageID(p), n)
		})
		return []gpu.Program{l.take()}
	}}
}

// Phases implements Workload.
func (w *HPGMG) Phases(bases []mem.Addr) []Phase {
	lp := new(looper)
	var phases []Phase
	for cyc := 0; cyc < w.VCycles; cyc++ {
		if cyc > 0 {
			// Host phase between cycles: OpenMP threads touch part
			// of the fine grid (norm computation, boundary work).
			phases = append(phases, Phase{
				Name: "host-work",
				HostTouches: []HostTouch{{
					Base:    bases[0],
					Bytes:   uint64(float64(w.FineBytes) * w.HostTouchFraction),
					Threads: w.HostThreads,
				}},
			})
		}
		// Down-sweep: smooth and restrict.
		for l := 0; l < w.Levels-1; l++ {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases = append(phases, Phase{
					Name:   "smooth-down",
					Kernel: w.smoothKernel(lp, bases[l], w.levelBytes(l), blocks),
				})
			}
			phases = append(phases, Phase{
				Name: "restrict",
				Kernel: w.transferKernel(lp, bases[l], bases[l+1],
					w.levelBytes(l), w.levelBytes(l+1), blocks),
			})
		}
		// Coarse solve.
		phases = append(phases, Phase{
			Name:   "coarse-solve",
			Kernel: w.smoothKernel(lp, bases[w.Levels-1], w.levelBytes(w.Levels-1), 4),
		})
		// Up-sweep: prolong and smooth.
		for l := w.Levels - 2; l >= 0; l-- {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			phases = append(phases, Phase{
				Name: "prolong",
				Kernel: w.transferKernel(lp, bases[l+1], bases[l],
					w.levelBytes(l+1), w.levelBytes(l), blocks),
			})
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases = append(phases, Phase{
					Name:   "smooth-up",
					Kernel: w.smoothKernel(lp, bases[l], w.levelBytes(l), blocks),
				})
			}
		}
	}
	return phases
}
