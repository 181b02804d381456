package hostos

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/mem"
)

// MappedPages returns a copy of the live-CPU-mapping page set of block.
func (vm *VM) MappedPages(block mem.VABlockID) mem.PageSet {
	if bm := vm.mapped.Lookup(block); bm != nil {
		return bm.pages
	}
	return mem.PageSet{}
}

// dmaBytes is the DMA address space handed out so far. Every mapped page
// takes one page of it, so it follows from the page count; the digests
// keep hashing it so their values do not move.
func (vm *VM) dmaBytes() uint64 {
	return uint64(vm.stats.DMAPagesMapped) * mem.PageSize
}

// mappedBlocks counts the blocks holding live CPU mappings. Blocks whose
// mappings were fully torn down stay in the directory but do not count.
func (vm *VM) mappedBlocks() int {
	n := 0
	vm.mapped.Range(func(_ mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			n++
		}
		return true
	})
	return n
}

// Digest returns the FNV-1a digest of the canonical host VM state, read
// in place: every block with live CPU mappings (ascending block order,
// its mapped pages and the bitmask of threads that touched it), the
// radix-tree shape, the DMA span and the accumulated statistics. Two runs
// of the same configuration must produce identical digests at every batch
// boundary.
func (vm *VM) Digest() uint64 {
	h := digest.New()
	h = h.Int(vm.mappedBlocks())
	vm.mapped.Range(func(b mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			h = h.Uint64(uint64(b))
			h = h.Words(bm.pages[:])
			h = h.Uint64(bm.threads)
		}
		return true
	})
	h = h.Int(vm.dma.Nodes())
	h = h.Uint64(vm.dmaBytes())
	s := &vm.stats
	h = h.Int(s.UnmapCalls).Int(s.PagesUnmapped).Int(s.PagesPopulated)
	h = h.Int(s.DMAPagesMapped).Int(s.RadixNodes).Int(s.PopulateFailures)
	h = h.Int64(int64(s.UnmapTime)).Int64(int64(s.PopulateTime)).Int64(int64(s.DMAMapTime))
	return h.Sum()
}

// Dump summarises the canonical host VM state, read in place like Digest,
// for divergence diagnostics: one line per block with live CPU mappings.
func (vm *VM) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostos: %d mapped blocks, %d radix nodes, stats %+v\n",
		vm.mappedBlocks(), vm.dma.Nodes(), vm.stats)
	vm.mapped.Range(func(id mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			fmt.Fprintf(&b, "  block %d: %d CPU-mapped pages, threads %#x\n",
				id, bm.pages.Count(), bm.threads)
		}
		return true
	})
	return b.String()
}
