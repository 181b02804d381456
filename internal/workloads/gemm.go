package workloads

import (
	"fmt"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// GEMM models cuBLAS [sd]gemm access geometry: C = A×B over N×N matrices
// in row-major layout, tiled so each thread block owns one C tile and
// sweeps the K dimension in panels. Row panels of A are contiguous pages;
// column panels of B stride across rows; blocks in the same tile row share
// A panels (cross-SM duplicate faults), blocks in the same tile column
// share B panels. The "phases" the paper observes in sgemm batch profiles
// (Figure 8) come from this tile-panel structure.
type GEMM struct {
	// N is the matrix dimension in elements.
	N int
	// Elem is the element size: 4 for sgemm, 8 for dgemm.
	Elem int
	// Tile is the square tile edge in elements.
	Tile int
	// ChunkPages is the coalesced page window a block loads at once
	// while staging a panel into shared memory.
	ChunkPages int
	// ComputePerChunk is the dependent staging/FMA time per chunk,
	// modeling the bounded per-warp ILP window.
	ComputePerChunk sim.Time
}

// NewSGEMM returns a single-precision GEMM of dimension n.
func NewSGEMM(n int) *GEMM {
	return &GEMM{N: n, Elem: 4, Tile: 256, ChunkPages: 8, ComputePerChunk: 40 * sim.Microsecond}
}

// NewDGEMM returns a double-precision GEMM of dimension n (Figure 15).
func NewDGEMM(n int) *GEMM {
	return &GEMM{N: n, Elem: 8, Tile: 256, ChunkPages: 8, ComputePerChunk: 80 * sim.Microsecond}
}

// Name implements Workload.
func (w *GEMM) Name() string {
	if w.Elem == 8 {
		return "dgemm"
	}
	return "sgemm"
}

// MatrixBytes returns the size of one matrix.
func (w *GEMM) MatrixBytes() uint64 { return uint64(w.N) * uint64(w.N) * uint64(w.Elem) }

// Allocs implements Workload.
func (w *GEMM) Allocs() []Alloc {
	b := w.MatrixBytes()
	return []Alloc{
		{Name: "A", Bytes: b, HostInit: true, HostThreads: 1},
		{Name: "B", Bytes: b, HostInit: true, HostThreads: 1},
		{Name: "C", Bytes: b},
	}
}

// panelPages returns the distinct pages, ascending, of the sub-matrix
// rows [r0, r0+nr) x cols [c0, c0+nc) of the row-major matrix at base,
// built in buf's storage.
func (w *GEMM) panelPages(buf []mem.PageID, base mem.Addr, r0, nr, c0, nc int) []mem.PageID {
	rowBytes := uint64(w.N) * uint64(w.Elem)
	pages := buf[:0]
	for r := r0; r < r0+nr; r++ {
		off := uint64(r)*rowBytes + uint64(c0)*uint64(w.Elem)
		first, n := spanIn(base, off, uint64(nc)*uint64(w.Elem))
		for i := 0; i < n; i++ {
			pages = append(pages, first+mem.PageID(i))
		}
	}
	return dedupPages(pages)
}

// Phases implements Workload.
func (w *GEMM) Phases(bases []mem.Addr) []Phase {
	if w.N%w.Tile != 0 {
		panic(fmt.Sprintf("workloads: GEMM N=%d not divisible by tile %d", w.N, w.Tile))
	}
	a, b, c := bases[0], bases[1], bases[2]
	tiles := w.N / w.Tile
	nblocks := tiles * tiles
	var l looper
	var aPages, bPages []mem.PageID
	return []Phase{{
		Name: w.Name(),
		Kernel: gpu.Kernel{NumBlocks: nblocks, BlockProgram: func(blk int) []gpu.Program {
			ti := blk / tiles // tile row
			tj := blk % tiles // tile col
			for k := 0; k < tiles; k++ {
				aPages = w.panelPages(aPages, a, ti*w.Tile, w.Tile, k*w.Tile, w.Tile)
				bPages = w.panelPages(bPages, b, k*w.Tile, w.Tile, tj*w.Tile, w.Tile)
				// Stage the panels chunk by chunk: each chunk's loads
				// must land before the dependent math lets the next
				// chunk issue (shared-memory double-buffer pacing).
				// Panels of evenly spaced pages repeat chunk after
				// chunk, so the looper folds them into one pass.
				n := max(len(aPages), len(bPages))
				l.fold((n+w.ChunkPages-1)/w.ChunkPages, func(c int, p *gpu.Program) {
					w.stageChunk(p, aPages, bPages, c*w.ChunkPages)
				})
			}
			// The C panel reuses the A panel's buffer: the ops already
			// hold their own runs.
			l.prog.WritePages(0, w.panelPages(aPages, c, ti*w.Tile, w.Tile, tj*w.Tile, w.Tile))
			return []gpu.Program{l.take()}
		}},
	}}
}

// stageChunk appends the loads of the chunk of both panels that starts at
// page index lo, and the math that depends on them.
func (w *GEMM) stageChunk(prog *gpu.Program, aPages, bPages []mem.PageID, lo int) {
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
