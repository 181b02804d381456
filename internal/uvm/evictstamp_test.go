package uvm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// stampCheck wraps an eviction strategy and, at every pick, checks each
// allocated block's batch stamp against a search of the batch's blocks
// as dedup and the cross-block stage find them: the distinct VABlocks of
// the non-stale faulted pages, then the cross-block additions that
// follow the dedup prefix of the serviced list.
type stampCheck struct {
	t     *testing.T
	inner EvictionStrategy
	picks int
}

func (s *stampCheck) Pick(d *Driver, candidates []int) int {
	sc := &d.scratch
	inBatch := func(bid mem.VABlockID) bool {
		for _, p := range sc.nonStale {
			if p.VABlock() == bid {
				return true
			}
		}
		return slices.Contains(sc.serviced[d.batch.rec.VABlocks:], bid)
	}
	for _, b := range d.allocated {
		if stamped, searched := b.batch == sc.stamp, inBatch(b.id); stamped != searched {
			s.t.Fatalf("block %d: stamp says in-batch=%v, search says %v", b.id, stamped, searched)
		}
	}
	s.picks++
	return s.inner.Pick(d, candidates)
}

// randomKernel reads seeded random runs of pages in [first, first+n).
func randomKernel(rng *rand.Rand, first mem.PageID, n, blocks int) gpu.Kernel {
	progs := make([][]gpu.Program, blocks)
	for b := range progs {
		var prog gpu.Program
		for i := 0; i < 8; i++ {
			p := first + mem.PageID(rng.Intn(n-16))
			prog.Read(0, p, 1+rng.Intn(16))
		}
		progs[b] = []gpu.Program{prog}
	}
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(b int) []gpu.Program { return progs[b] }}
}

// TestEvictionBatchStampMatchesSearch runs seeded random reads over
// three times the device memory — with and without cross-block prefetch,
// on every architecture — and checks at every eviction that the batch
// stamps and a search of the batch's blocks agree on every candidate.
func TestEvictionBatchStampMatchesSearch(t *testing.T) {
	for _, arch := range []string{"host-driven", "gpu-driven", "access-counter"} {
		for _, pf := range []struct {
			name  string
			scope int
		}{{"tree", 0}, {"cross-block", 2}} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/xblock=%d/seed=%d", arch, pf.scope, seed)
				t.Run(name, func(t *testing.T) {
					ucfg := DefaultConfig()
					ucfg.GPUMemBytes = 4 * mem.VABlockSize
					eng, drv, dev := newPolicySystem(smallGPU(), ucfg, PolicySelection{Prefetch: pf.name, Architecture: arch})
					if drv.prefetch.scope != pf.scope {
						t.Fatalf("prefetch %q resolved scope %d, want %d", pf.name, drv.prefetch.scope, pf.scope)
					}
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
