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

// AuditState is the canonical snapshot of the driver: every known VABlock
// (ascending ID), the chunk-allocation order, capacity accounting, the
// adaptive batch state, and the accumulated statistics. Building one
// copies every block; the auditor and Digest walk the live driver instead
// (VisitBlocks, AuditHeader), and AuditState remains the oracle they are
// tested against and the source of the determinism recorder's dumps.
type AuditState struct {
	Blocks []BlockAudit
	// AllocatedOrder is d.allocated in order: the LRU/FIFO victim scan
	// sequence. Every listed block must hold a chunk.
	AllocatedOrder []mem.VABlockID
	ChunksInUse    int
	CapacityBlocks int
	EffBatch       int
	BatchCount     int
	NextSeq        int
	Sleeping       bool
	InBatch        bool
	// Dead reports device-loss: the driver re-homed its pages and parked
	// (rehome.go). Dead drivers must hold no chunks.
	Dead  bool
	Stats Stats
}

// AuditHeader is the driver's scalar audit state: AuditState without the
// block list, the victim-scan order (only its length) and the stats.
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

// ResidentPages sums GPU-resident pages across blocks.
func (st *AuditState) ResidentPages() int {
	n := 0
	for i := range st.Blocks {
		n += st.Blocks[i].Resident.Count()
	}
	return n
}

// AuditHeader returns the snapshot's scalar fields.
func (st *AuditState) AuditHeader() AuditHeader {
	return AuditHeader{
		ChunksInUse:    st.ChunksInUse,
		CapacityBlocks: st.CapacityBlocks,
		Allocated:      len(st.AllocatedOrder),
		EffBatch:       st.EffBatch,
		BatchCount:     st.BatchCount,
		NextSeq:        st.NextSeq,
		Sleeping:       st.Sleeping,
		InBatch:        st.InBatch,
		Dead:           st.Dead,
	}
}

// VisitBlocks calls fn for each of the snapshot's blocks in order until
// fn returns false, as Driver.VisitBlocks does for the live driver.
func (st *AuditState) VisitBlocks(fn func(*BlockAudit) bool) {
	for i := range st.Blocks {
		if !fn(&st.Blocks[i]) {
			return
		}
	}
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

// AuditState captures the canonical driver state as a snapshot.
func (d *Driver) AuditState() AuditState {
	h := d.AuditHeader()
	st := AuditState{
		ChunksInUse:    h.ChunksInUse,
		CapacityBlocks: h.CapacityBlocks,
		EffBatch:       h.EffBatch,
		BatchCount:     h.BatchCount,
		NextSeq:        h.NextSeq,
		Sleeping:       h.Sleeping,
		InBatch:        h.InBatch,
		Dead:           h.Dead,
		Stats:          d.stats,
	}
	st.Blocks = make([]BlockAudit, 0, d.blocks.Len())
	// BlockDir ranges in ascending ID order — exactly the canonical
	// order the former sorted-keys walk produced.
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		st.Blocks = append(st.Blocks, b.audit())
		return true
	})
	for _, b := range d.allocated {
		st.AllocatedOrder = append(st.AllocatedOrder, b.id)
	}
	return st
}

// Digest returns the FNV-1a digest of the canonical driver state. It
// hashes the live blocks in place, in AuditState's order.
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

// Dump renders the audit state for divergence diagnostics.
func (st AuditState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "uvm: %d blocks known, %d/%d chunks in use, effBatch %d, batch %d, stats %+v\n",
		len(st.Blocks), st.ChunksInUse, st.CapacityBlocks, st.EffBatch, st.BatchCount, st.Stats)
	for i := range st.Blocks {
		blk := &st.Blocks[i]
		fmt.Fprintf(&b, "  block %d: resident %d, populated %d, chunk %v",
			blk.ID, blk.Resident.Count(), blk.Populated.Count(), blk.HasChunk)
		if blk.HasChunk {
			fmt.Fprintf(&b, " (#%d)", blk.Chunk)
		}
		if n := blk.RemoteMapped.Count(); n > 0 {
			fmt.Fprintf(&b, ", remote %d", n)
		}
		fmt.Fprintf(&b, ", dma %v, lastTouch %d, seq %d, evictions %d\n",
			blk.DMAMapped, blk.LastTouch, blk.AllocSeq, blk.Evictions)
	}
	return b.String()
}
