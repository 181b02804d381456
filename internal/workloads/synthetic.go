package workloads

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// VecAddPaper is the paper's Listing 1: one 32-thread warp computing
// c = a + b three times, each thread one page apart, so every access is a
// distinct page. It exposes the µTLB outstanding-fault limit (the 56-fault
// first batch of Figure 3) and the scoreboard serialization of writes.
type VecAddPaper struct {
	// Threads per warp (the paper uses 32).
	Threads int
	// Iterations (the paper uses 3).
	Iterations int
}

// NewVecAddPaper returns the exact Listing-1 configuration.
func NewVecAddPaper() *VecAddPaper { return &VecAddPaper{Threads: 32, Iterations: 3} }

// Name implements Workload.
func (w *VecAddPaper) Name() string { return "vecadd-listing1" }

// Allocs implements Workload: a, b, c sized so each thread-iteration
// touches its own page.
func (w *VecAddPaper) Allocs() []Alloc {
	bytes := uint64(w.Threads*w.Iterations) * mem.PageSize
	return []Alloc{
		{Name: "a", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "b", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "c", Bytes: bytes},
	}
}

// Phases implements Workload.
func (w *VecAddPaper) Phases(bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	var prog gpu.Program
	for it := 0; it < w.Iterations; it++ {
		off := mem.PageID(it * w.Threads)
		prog.Read(0, a+off, w.Threads)
		prog.Read(1, b+off, w.Threads)
		// The FADD's scoreboard stall: the store cannot issue until both
		// loads complete (Listing 2).
		prog.Write(gpu.Regs(0, 1), c+off, w.Threads)
	}
	return []Phase{{
		Name: "vecadd",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{prog}
		}},
	}}
}

// VecAddPrefetch is the §3.2 prefetch variant: prefetch.global.L2-style
// instructions fetch a, b and c up front, bypassing the scoreboard, the
// µTLB fault limit and the SM throttle — a single warp fills whole
// 256-fault batches (Figure 5).
type VecAddPrefetch struct {
	// PagesPerVector is the page count of each vector (256 in Figure 5).
	PagesPerVector int
}

// NewVecAddPrefetch returns the Figure-5 configuration.
func NewVecAddPrefetch() *VecAddPrefetch { return &VecAddPrefetch{PagesPerVector: 256} }

// Name implements Workload.
func (w *VecAddPrefetch) Name() string { return "vecadd-prefetch" }

// Allocs implements Workload.
func (w *VecAddPrefetch) Allocs() []Alloc {
	bytes := uint64(w.PagesPerVector) * mem.PageSize
	return []Alloc{
		{Name: "a", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "b", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "c", Bytes: bytes},
	}
}

// Phases implements Workload.
func (w *VecAddPrefetch) Phases(bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	var prog gpu.Program
	prog.Prefetch(a, w.PagesPerVector)
	prog.Prefetch(b, w.PagesPerVector)
	prog.Prefetch(c, w.PagesPerVector)
	prog.Compute(10*sim.Microsecond, 0)
	return []Phase{{
		Name: "prefetch-vecadd",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{prog}
		}},
	}}
}

// Regular is the synthetic sequential-access benchmark of Tables 2/3:
// many blocks each streaming a contiguous partition of a large array.
type Regular struct {
	Bytes      uint64
	Partitions int
	ChunkPages int
}

// NewRegular returns a regular workload over bytes with p partitions.
func NewRegular(bytes uint64, p int) *Regular {
	return &Regular{Bytes: bytes, Partitions: p, ChunkPages: 8}
}

// Name implements Workload.
func (w *Regular) Name() string { return "regular" }

// Allocs implements Workload.
func (w *Regular) Allocs() []Alloc {
	return []Alloc{{Name: "data", Bytes: w.Bytes, HostInit: true, HostThreads: 1}}
}

// Phases implements Workload.
func (w *Regular) Phases(bases []mem.Addr) []Phase {
	first := mem.PageOf(bases[0])
	total := int(w.Bytes / mem.PageSize)
	per := (total + w.Partitions - 1) / w.Partitions
	chunk := w.ChunkPages
	var l looper
	return []Phase{{
		Name: "stream-read",
		Kernel: gpu.Kernel{NumBlocks: w.Partitions, BlockProgram: func(b int) []gpu.Program {
			lo := b * per
			hi := lo + per
			if hi > total {
				hi = total
			}
			if lo >= hi {
				return nil
			}
			l.fold((hi-lo+chunk-1)/chunk, func(c int, p *gpu.Program) {
				at := lo + c*chunk
				p.Read(0, first+mem.PageID(at), min(chunk, hi-at))
			})
			return []gpu.Program{l.take()}
		}},
	}}
}

// Random is the synthetic uniform-random benchmark of Tables 2/3: blocks
// issue single-page accesses spread across the whole array, so nearly
// every fault in a batch lands in its own VABlock.
type Random struct {
	Bytes          uint64
	Blocks         int
	AccessesPerBlk int
	Seed           uint64
}

// NewRandom returns a random workload over bytes.
func NewRandom(bytes uint64, blocks, accesses int, seed uint64) *Random {
	return &Random{Bytes: bytes, Blocks: blocks, AccessesPerBlk: accesses, Seed: seed}
}

// Name implements Workload.
func (w *Random) Name() string { return "random" }

// Allocs implements Workload.
func (w *Random) Allocs() []Alloc {
	return []Alloc{{Name: "data", Bytes: w.Bytes, HostInit: true, HostThreads: 1}}
}

// Phases implements Workload.
func (w *Random) Phases(bases []mem.Addr) []Phase {
	first := mem.PageOf(bases[0])
	totalPages := uint64(w.Bytes / mem.PageSize)
	seed := w.Seed
	return []Phase{{
		Name: "random-read",
		Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(b int) []gpu.Program {
			// One hashed read looped over the block's accesses: access
			// i reads the page draw i of the block's seed names, as a
			// sim.RNG seeded alike would draw it.
			prog := gpu.NewProgram(2, 1)
			if w.AccessesPerBlk > 0 {
				prog.ReadHashed(0, first, totalPages, seed+uint64(b)*0x9e37, w.AccessesPerBlk)
			}
			return []gpu.Program{prog}
		}},
	}}
}

// Stream is the BabelStream triad of Table 1: a[i] = b[i] + s*c[i]. The
// grid-stride loop of the real benchmark makes the access frontier advance
// front-to-back through the arrays — resident blocks cooperatively sweep —
// and warp-level coalescing bounds the pages a block has in flight, so
// steady-state fault generation is far below the synthetic benchmarks'
// (Table 2: 0.75 faults/SM/batch vs regular's 3.06).
type Stream struct {
	BytesPerArray uint64
	// Blocks is the resident thread-block count sweeping the arrays.
	Blocks int
	// ChunkPages is the coalesced page window a block faults at once.
	ChunkPages int
	// ComputePerChunk is the dependent FMA time pacing each chunk,
	// modeling the bounded per-warp ILP window of the real kernel.
	ComputePerChunk sim.Time
	// Iterations repeats the triad (re-touching the same arrays).
	Iterations int
	// ShadowWarps adds warps per block re-touching the lead page of
	// each chunk: the intra-block sharing that makes multiple warps
	// issue the same fault (§4.2 type-1 duplicates).
	ShadowWarps int
}

// NewStream returns a triad over three arrays of the given size.
func NewStream(bytesPerArray uint64, blocks int) *Stream {
	return &Stream{
		BytesPerArray:   bytesPerArray,
		Blocks:          blocks,
		ChunkPages:      2,
		ComputePerChunk: 60 * sim.Microsecond,
		Iterations:      1,
		ShadowWarps:     1,
	}
}

// Name implements Workload.
func (w *Stream) Name() string { return "stream" }

// Allocs implements Workload.
func (w *Stream) Allocs() []Alloc {
	return []Alloc{
		{Name: "a", Bytes: w.BytesPerArray},
		{Name: "b", Bytes: w.BytesPerArray, HostInit: true, HostThreads: 1},
		{Name: "c", Bytes: w.BytesPerArray, HostInit: true, HostThreads: 1},
	}
}

// Phases implements Workload.
func (w *Stream) Phases(bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	total := int(w.BytesPerArray / mem.PageSize)
	chunk := w.ChunkPages
	stride := w.Blocks * chunk
	var l looper
	var phases []Phase
	for it := 0; it < w.Iterations; it++ {
		phases = append(phases, Phase{
			Name: "triad",
			Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
				// Grid-stride: block blk handles chunks blk, blk+B,
				// blk+2B, ... so all blocks advance one frontier.
				lo := blk * chunk
				chunks := 0
				if lo < total {
					chunks = (total - lo + stride - 1) / stride
				}
				l.fold(chunks, func(i int, p *gpu.Program) {
					at := lo + i*stride
					off, n := mem.PageID(at), min(chunk, total-at)
					p.Read(0, b+off, n)
					p.Read(1, c+off, n)
					p.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
					p.Write(0, a+off, n)
				})
				prog := l.take()
				// Sibling warps coalesce onto each chunk's lead pages,
				// re-issuing the same faults.
				l.fold(chunks, func(i int, p *gpu.Program) {
					off := mem.PageID(lo + i*stride)
					p.Read(0, b+off, 1)
					p.Read(1, c+off, 1)
					p.Compute(w.ComputePerChunk, gpu.Regs(0, 1))
				})
				shadow := l.take()
				progs := make([]gpu.Program, 0, 1+w.ShadowWarps)
				progs = append(progs, prog)
				for s := 0; s < w.ShadowWarps; s++ {
					progs = append(progs, shadow)
				}
				return progs
			}},
		})
	}
	return phases
}

// VecAddCoalesced is the §3.2 "coalescing version" of the vector addition:
// consecutive threads touch consecutive elements, so a warp's 32 lanes
// coalesce into few pages — but the scoreboard still forces each warp
// through at least two full fault rounds (reads, then writes), since the
// store needs both loads.
type VecAddCoalesced struct {
	// PagesPerVector is each vector's page count.
	PagesPerVector int
	// Warps is the number of independent warps (each owns a slice).
	Warps int
}

// NewVecAddCoalesced returns a coalesced vecadd.
func NewVecAddCoalesced() *VecAddCoalesced {
	return &VecAddCoalesced{PagesPerVector: 32, Warps: 4}
}

// Name implements Workload.
func (w *VecAddCoalesced) Name() string { return "vecadd-coalesced" }

// Allocs implements Workload.
func (w *VecAddCoalesced) Allocs() []Alloc {
	bytes := uint64(w.PagesPerVector) * mem.PageSize
	return []Alloc{
		{Name: "a", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "b", Bytes: bytes, HostInit: true, HostThreads: 1},
		{Name: "c", Bytes: bytes},
	}
}

// Phases implements Workload.
func (w *VecAddCoalesced) Phases(bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	per := w.PagesPerVector / w.Warps
	return []Phase{{
		Name: "vecadd-coalesced",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			progs := make([]gpu.Program, w.Warps)
			for wi := range progs {
				off := mem.PageID(wi * per)
				progs[wi].Read(0, a+off, per)
				progs[wi].Read(1, b+off, per)
				progs[wi].Write(gpu.Regs(0, 1), c+off, per)
			}
			return progs
		}},
	}}
}
