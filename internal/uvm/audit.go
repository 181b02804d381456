package uvm

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/gpumem"
	"guvm/internal/mem"
)

// BlockAudit is the audit view of one VABlock's driver-side state.
type BlockAudit struct {
	ID        mem.VABlockID
	Resident  mem.PageSet
	Populated mem.PageSet
	HasChunk  bool
	Chunk     gpumem.ChunkID
	DMAMapped bool
	LastTouch int
	AllocSeq  int
	Evictions int
	// RemoteMapped marks pages GPU-mapped into host memory (the
	// access-counter architecture); always empty elsewhere.
	RemoteMapped mem.PageSet
}

// AuditHeader is the driver's scalar audit state: the chunk and capacity
// accounting, the length of the victim-scan order and the batch state.
type AuditHeader struct {
	ChunksInUse    int
	CapacityBlocks int
	// Allocated is the length of the victim-scan list.
	Allocated  int
	EffBatch   int
	BatchCount int
	NextSeq    int
	Sleeping   bool
	InBatch    bool
	Dead       bool
}

// ChunkOwner reports the VABlock backing a live chunk, resolving through
// the physical allocator (for the chunk-ownership bijection check).
func (d *Driver) ChunkOwner(id gpumem.ChunkID) (mem.VABlockID, bool) {
	return d.pmm.Owner(id)
}

// audit returns the audit view of b.
func (b *blockState) audit() BlockAudit {
	return BlockAudit{
		ID:           b.id,
		Resident:     b.resident,
		Populated:    b.populated,
		HasChunk:     b.hasChunk,
		Chunk:        b.chunk,
		DMAMapped:    b.dmaMapped,
		LastTouch:    b.lastTouch,
		AllocSeq:     b.allocSeq,
		Evictions:    b.evictions,
		RemoteMapped: b.remoteMapped,
	}
}

// AuditHeader returns the driver's scalar audit state.
func (d *Driver) AuditHeader() AuditHeader {
	return AuditHeader{
		ChunksInUse:    d.pmm.InUse(),
		CapacityBlocks: d.cfg.CapacityBlocks(),
		Allocated:      len(d.allocated),
		EffBatch:       d.effBatch,
		BatchCount:     d.batchCount,
		NextSeq:        d.nextSeq,
		Sleeping:       d.sleeping,
		InBatch:        d.inBatch,
		Dead:           d.dead,
	}
}

// VisitBlocks calls fn with the audit view of every known VABlock, in
// ascending ID order, until fn returns false. The view is one record the
// driver refills for each block, so the walk allocates nothing and fn
// must copy whatever it keeps past its return.
func (d *Driver) VisitBlocks(fn func(*BlockAudit) bool) {
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		d.auditRec = b.audit()
		return fn(&d.auditRec)
	})
}

// LookupBlock returns the audit view of block id, and whether the driver
// knows the block.
func (d *Driver) LookupBlock(id mem.VABlockID) (BlockAudit, bool) {
	b, ok := d.blocks.Get(id)
	if !ok {
		return BlockAudit{}, false
	}
	return b.audit(), true
}

// Digest returns the FNV-1a digest of the canonical driver state, read in
// place: every known VABlock in ascending ID order, the victim-scan
// order, the header and the accumulated statistics.
func (d *Driver) Digest() uint64 {
	h := digest.New()
	h = h.Int(d.blocks.Len())
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		h = h.Uint64(uint64(b.id))
		h = h.Words(b.resident[:])
		h = h.Words(b.populated[:])
		h = h.Bool(b.hasChunk)
		if b.hasChunk {
			h = h.Int(int(b.chunk))
		}
		h = h.Bool(b.dmaMapped)
		h = h.Int(b.lastTouch).Int(b.allocSeq).Int(b.evictions)
		// Remote mappings fold in only when present, keeping host-driven
		// digests bit-identical to their pre-lift goldens.
		if b.remoteMapped.Any() {
			h = h.Words(b.remoteMapped[:])
		}
		return true
	})
	h = h.Int(len(d.allocated))
	for _, b := range d.allocated {
		h = h.Uint64(uint64(b.id))
	}
	hd := d.AuditHeader()
	h = h.Int(hd.ChunksInUse).Int(hd.CapacityBlocks)
	h = h.Int(hd.EffBatch).Int(hd.BatchCount).Int(hd.NextSeq)
	h = h.Bool(hd.Sleeping).Bool(hd.InBatch)
	s := &d.stats
	h = h.Int(s.Batches).Int(s.TotalFaults).Int(s.StaleFaults).Int(s.Evictions)
	h = h.Int(s.PrefetchedPages).Int(s.CrossBlockPages).Int(s.MigratedPages)
	h = h.Int(s.WakeUps).Int(s.SpuriousWakeUps)
	h = h.Int(s.AsyncUnmapCalls).Int64(int64(s.AsyncUnmapTime))
	h = h.Int(s.MigRetries).Int(s.HostAllocFailures).Int(s.BatchShrinks)
	h = h.Uint64(s.ExplicitBytes).Uint64(s.InjMigRetryBytes)
	// Architecture telemetry folds in only when non-zero (host-driven
	// runs never touch it).
	if s.RemoteMappedPages != 0 || s.CounterPromotions != 0 {
		h = h.Int(s.RemoteMappedPages).Int(s.CounterPromotions)
	}
	// Hardware fault-domain state folds in only under a hardware
	// regime, so default runs keep their historical digests.
	if d.hw {
		h = h.Bool(hd.Dead)
		h = h.Int(s.HWLinkRetries).Int(s.DegradedShrinks)
		h = h.Uint64(s.HWRetryToGPUBytes).Uint64(s.HWRetryToHostBytes)
		h = h.Int(s.RehomedBlocks).Int(s.RehomedPages).Uint64(s.RehomedBytes)
		h = h.Int(s.ResidentAtKill)
	}
	return h.Sum()
}

// Dump summarises the canonical driver state, read in place like Digest,
// for divergence diagnostics: the header and stats, then one line per
// known block in ascending ID order.
func (d *Driver) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "uvm: %d blocks known, %d/%d chunks in use, effBatch %d, batch %d, stats %+v\n",
		d.blocks.Len(), d.pmm.InUse(), d.cfg.CapacityBlocks(), d.effBatch, d.batchCount, d.stats)
	d.blocks.Range(func(_ mem.VABlockID, blk *blockState) bool {
		fmt.Fprintf(&b, "  block %d: resident %d, populated %d, chunk %v",
			blk.id, blk.resident.Count(), blk.populated.Count(), blk.hasChunk)
		if blk.hasChunk {
			fmt.Fprintf(&b, " (#%d)", blk.chunk)
		}
		if n := blk.remoteMapped.Count(); n > 0 {
			fmt.Fprintf(&b, ", remote %d", n)
		}
		fmt.Fprintf(&b, ", dma %v, lastTouch %d, seq %d, evictions %d\n",
			blk.dmaMapped, blk.lastTouch, blk.allocSeq, blk.evictions)
		return true
	})
	return b.String()
}
