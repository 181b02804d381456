package hostos

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/mem"
)

// MappingAudit is the audit view of one VABlock's live CPU mappings.
type MappingAudit struct {
	Block mem.VABlockID
	// Pages marks the pages holding live CPU PTEs.
	Pages mem.PageSet
	// Threads is the bitmask of CPU threads that touched the mapping.
	Threads uint64
}

// AuditState is the canonical snapshot of the host VM model: every block
// with live CPU mappings (ascending block order), the radix-tree shape,
// and the accumulated statistics. Digest reads the live VM instead; the
// snapshot is its test oracle and the determinism recorder's state dump.
type AuditState struct {
	Mappings   []MappingAudit
	RadixNodes int
	// DMANext is the DMA address space handed out so far: one page per
	// DMA-mapped page (Stats.DMAPagesMapped × PageSize).
	DMANext uint64
	Stats   Stats
}

// MappedPages returns a copy of the live-CPU-mapping page set of block.
func (vm *VM) MappedPages(block mem.VABlockID) mem.PageSet {
	if bm := vm.mapped.Lookup(block); bm != nil {
		return bm.pages
	}
	return mem.PageSet{}
}

// AuditState captures the canonical state of the host VM for auditing.
func (vm *VM) AuditState() AuditState {
	st := AuditState{
		RadixNodes: vm.dma.Nodes(),
		DMANext:    vm.dmaBytes(),
		Stats:      vm.stats,
	}
	// BlockDir ranges in ascending block order — the canonical order the
	// former sorted-keys walk produced. Blocks whose mappings were fully
	// torn down stay in the directory but are skipped, as before.
	vm.mapped.Range(func(b mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			st.Mappings = append(st.Mappings, MappingAudit{
				Block:   b,
				Pages:   bm.pages,
				Threads: bm.threads,
			})
		}
		return true
	})
	return st
}

// dmaBytes is the DMA address space handed out so far. Every mapped page
// takes one page of it, so it follows from the page count; the digests
// keep hashing it so their values do not move.
func (vm *VM) dmaBytes() uint64 {
	return uint64(vm.stats.DMAPagesMapped) * mem.PageSize
}

// Digest returns the FNV-1a digest of the canonical host VM state. Two
// runs of the same configuration must produce identical digests at every
// batch boundary. It hashes the live mapping directory in place, in
// AuditState's order: one pass counts the mapped blocks, a second hashes
// them.
func (vm *VM) Digest() uint64 {
	h := digest.New()
	n := 0
	vm.mapped.Range(func(_ mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			n++
		}
		return true
	})
	h = h.Int(n)
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

// Dump renders the audit state for divergence diagnostics.
func (st AuditState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostos: %d mapped blocks, %d radix nodes, stats %+v\n",
		len(st.Mappings), st.RadixNodes, st.Stats)
	for i := range st.Mappings {
		m := &st.Mappings[i]
		fmt.Fprintf(&b, "  block %d: %d CPU-mapped pages, threads %#x\n",
			m.Block, m.Pages.Count(), m.Threads)
	}
	return b.String()
}
