package workloads

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// FFT models cuFFT's out-of-place Stockham-style passes over a complex
// array: log2(N/elementsPerChunk) passes, each reading the source at two
// strided offsets and writing contiguously. Early passes are contiguous;
// later passes stride beyond VABlock size, spreading each batch across
// many VABlocks with few faults per block — the Table 3 cufft signature
// (25 VABlocks/batch, ~3 faults each).
type FFT struct {
	// Elements is the transform length (complex64: 8 bytes each).
	Elements int
	// Blocks is the thread-block count per pass.
	Blocks int
	// ChunkPages is the contiguous work unit per op.
	ChunkPages int
	// ComputePerChunk is the dependent butterfly time per chunk.
	ComputePerChunk sim.Time
}

// NewFFT returns an FFT over n complex64 elements.
func NewFFT(n, blocks int) *FFT {
	return &FFT{Elements: n, Blocks: blocks, ChunkPages: 2, ComputePerChunk: 30 * sim.Microsecond}
}

// Name implements Workload.
func (w *FFT) Name() string { return "cufft" }

const fftElemBytes = 8 // complex64

func (w *FFT) arrayBytes() uint64 { return uint64(w.Elements) * fftElemBytes }

// Allocs implements Workload: ping-pong buffers.
func (w *FFT) Allocs() []Alloc {
	return []Alloc{
		{Name: "src", Bytes: w.arrayBytes(), HostInit: true, HostThreads: 1},
		{Name: "dst", Bytes: w.arrayBytes()},
	}
}

// Phases implements Workload.
func (w *FFT) Phases(bases []mem.Addr) []Phase {
	totalPages := int(w.arrayBytes() / mem.PageSize)
	passes := 0
	for n := totalPages; n > 1; n /= 2 {
		passes++
	}
	if passes > 8 {
		passes = 8 // cap pass count: locality signature saturates
	}
	var l looper
	var phases []Phase
	for p := 0; p < passes; p++ {
		src := mem.PageOf(bases[p%2])
		dst := mem.PageOf(bases[(p+1)%2])
		// Read stride in pages doubles each pass; reads gather from
		// idx and idx+stride, writes are contiguous.
		stride := totalPages >> (p + 1)
		if stride < w.ChunkPages {
			stride = w.ChunkPages
		}
		per := (totalPages/2 + w.Blocks - 1) / w.Blocks
		chunk := w.ChunkPages
		phases = append(phases, Phase{
			Name: "fft-pass",
			Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
				lo := blk * per
				hi := lo + per
				if hi > totalPages/2 {
					hi = totalPages / 2
				}
				if lo >= hi {
					return nil
				}
				// Each chunk is two reads, the math and two writes.
				// Within one stride-wide segment of the source the
				// chunks repeat, reads advancing by chunk pages and
				// writes by twice that, so a block is one loop per
				// segment it touches.
				l.fold((hi-lo+chunk-1)/chunk, func(c int, prog *gpu.Program) {
					i := lo + c*chunk
					n := min(chunk, hi-i)
					loIdx := mem.PageID(i % stride)
					base := mem.PageID(i/stride) * mem.PageID(stride) * 2
					prog.Read(0, src+base+loIdx, n)
					prog.Read(1, src+base+loIdx+mem.PageID(stride), n)
					prog.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
					prog.Write(0, dst+mem.PageID(2*i), n)
					prog.Write(0, dst+mem.PageID(2*i)+mem.PageID(n), n)
				})
				return []gpu.Program{l.take()}
			}},
		})
	}
	return phases
}
