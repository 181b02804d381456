package uvm

import (
	"fmt"
	"math/rand"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// stampCheck wraps an eviction strategy and, at every pick, checks each
// allocated block's batch stamp against the inBatch binary search the
// stamp replaced in evictOne's candidate scan.
type stampCheck struct {
	t     *testing.T
	inner EvictionStrategy
	picks int
}

func (s *stampCheck) Pick(d *Driver, candidates []int) int {
	sc := &d.scratch
	for _, b := range d.allocated {
		if stamped, searched := b.batch == sc.stamp, sc.inBatch(b.id); stamped != searched {
			s.t.Fatalf("block %d: stamp says in-batch=%v, binary search says %v", b.id, stamped, searched)
		}
	}
	s.picks++
	return s.inner.Pick(d, candidates)
}

// randomKernel reads seeded random runs of pages in [first, first+n).
func randomKernel(rng *rand.Rand, first mem.PageID, n, blocks int) gpu.Kernel {
	progs := make([][]gpu.Program, blocks)
	for b := range progs {
		var pages []mem.PageID
		for i := 0; i < 8; i++ {
			p := first + mem.PageID(rng.Intn(n-16))
			pages = append(pages, gpu.PageRange(p, 1+rng.Intn(16))...)
		}
		progs[b] = []gpu.Program{{gpu.Read(0, pages...)}}
	}
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(b int) []gpu.Program { return progs[b] }}
}

// TestEvictionBatchStampMatchesSearch runs seeded random reads over
// three times the device memory — with and without cross-block prefetch,
// on every architecture — and checks at every eviction that the batch
// stamps and the inBatch search agree on every candidate block.
func TestEvictionBatchStampMatchesSearch(t *testing.T) {
	for _, arch := range []string{"host-driven", "gpu-driven", "access-counter"} {
		for _, xblock := range []int{0, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/xblock=%d/seed=%d", arch, xblock, seed)
				t.Run(name, func(t *testing.T) {
					ucfg := DefaultConfig()
					ucfg.GPUMemBytes = 4 * mem.VABlockSize
					ucfg.CrossBlockPrefetch = xblock
					ucfg.Architecture = arch
					eng, drv, dev := newSystem(smallGPU(), ucfg)
					check := &stampCheck{t: t, inner: drv.evict}
					drv.evict = check
					npages := 12 * mem.PagesPerVABlock
					base := drv.Alloc(uint64(npages) * mem.PageSize)
					rng := rand.New(rand.NewSource(seed))
					runKernel(t, eng, dev, randomKernel(rng, mem.PageOf(base), npages, 64))
					if check.picks == 0 {
						t.Fatal("no eviction ran; the check saw nothing")
					}
				})
			}
		}
	}
}
