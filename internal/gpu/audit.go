package gpu

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/mem"
)

// AuditState is the canonical snapshot of the device model: fault-buffer
// occupancy, per-µTLB pending/deferred/stalled populations, kernel
// progress, and the accumulated statistics. At a clean end of run every
// occupancy field must be zero — a non-empty µTLB after the queue drained
// means a lost fault. Digest and the auditor read the live device
// instead; the snapshot is their test oracle and the determinism
// recorder's state dump.
type AuditState struct {
	BufferLen int
	Running   bool
	// LiveBlocks counts thread blocks resident on SMs; NextBlock is the
	// grid launch cursor.
	LiveBlocks int
	NextBlock  int
	NextWarpID int
	// Per-µTLB occupancy, indexed by µTLB id.
	PendingPerUTLB  []int
	PrefetchPerUTLB []int
	DeferredPerUTLB []int
	StalledPerUTLB  []int
	// PendingPages flattens every pending fault page (replayable then
	// prefetch, per µTLB, in insertion order) so digests see the exact
	// outstanding-fault population, not just its size.
	PendingPages []mem.PageID
	// Killed reports catastrophic device loss (Device.Kill).
	Killed bool
	Stats  Stats
}

// AuditState captures the canonical device state for auditing.
func (d *Device) AuditState() AuditState {
	st := AuditState{
		BufferLen:  d.Buffer.Len(),
		Running:    d.launched,
		LiveBlocks: d.liveBlocks,
		NextBlock:  d.nextBlock,
		NextWarpID: d.nextWarpID,
		Killed:     d.killed,
		Stats:      d.stats,
	}
	for _, u := range d.utlbs {
		st.PendingPerUTLB = append(st.PendingPerUTLB, u.pending.len())
		st.PrefetchPerUTLB = append(st.PrefetchPerUTLB, u.prefetchPending.len())
		st.DeferredPerUTLB = append(st.DeferredPerUTLB, len(u.deferred))
		st.StalledPerUTLB = append(st.StalledPerUTLB, len(u.stalled))
		for _, e := range u.pending.entries {
			st.PendingPages = append(st.PendingPages, e.page)
		}
		for _, e := range u.prefetchPending.entries {
			st.PendingPages = append(st.PendingPages, e.page)
		}
	}
	return st
}

// PendingFaults counts the outstanding fault entries across µTLBs:
// pending, prefetch-pending and deferred.
func (d *Device) PendingFaults() int {
	n := 0
	for _, u := range d.utlbs {
		n += u.pending.len() + u.prefetchPending.len() + len(u.deferred)
	}
	return n
}

// LiveBlocks returns the number of thread blocks resident on SMs.
func (d *Device) LiveBlocks() int { return d.liveBlocks }

// Digest returns the FNV-1a digest of the canonical device state. It
// hashes the live µTLB tables in place, in AuditState's order.
func (d *Device) Digest() uint64 {
	h := digest.New()
	h = h.Int(d.Buffer.Len()).Bool(d.launched)
	h = h.Int(d.liveBlocks).Int(d.nextBlock).Int(d.nextWarpID)
	pages := 0
	for _, u := range d.utlbs {
		h = h.Int(u.pending.len()).Int(u.prefetchPending.len())
		h = h.Int(len(u.deferred)).Int(len(u.stalled))
		pages += u.pending.len() + u.prefetchPending.len()
	}
	h = h.Int(pages)
	for _, u := range d.utlbs {
		for _, e := range u.pending.entries {
			h = h.Uint64(uint64(e.page))
		}
		for _, e := range u.prefetchPending.entries {
			h = h.Uint64(uint64(e.page))
		}
	}
	s := &d.stats
	h = h.Int(s.FaultsEmitted).Int(s.DupFaults).Int(s.Refaults)
	h = h.Int(s.ThrottleStalls).Int(s.UTLBFullStalls).Int(s.BlocksCompleted)
	h = h.Int(s.InjectedDrops).Int(s.InjectedDropRetries).Int(s.InjectedDropsLost)
	// Architecture telemetry folds in only when non-zero, keeping the
	// default host-driven digests bit-identical to their goldens.
	if s.RemoteAccesses != 0 || s.CounterNotices != 0 {
		h = h.Int(s.RemoteAccesses).Int(s.CounterNotices)
	}
	// A killed device folds the flag in; live devices keep their
	// historical digests bit-identical.
	if d.killed {
		h = h.Bool(true)
	}
	return h.Sum()
}

// Dump renders the audit state for divergence diagnostics.
func (st AuditState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu: buffer %d, running %v, live blocks %d (next %d), stats %+v\n",
		st.BufferLen, st.Running, st.LiveBlocks, st.NextBlock, st.Stats)
	for i := range st.PendingPerUTLB {
		if st.PendingPerUTLB[i]+st.PrefetchPerUTLB[i]+st.DeferredPerUTLB[i]+st.StalledPerUTLB[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  utlb %d: %d pending, %d prefetch, %d deferred, %d stalled warps\n",
			i, st.PendingPerUTLB[i], st.PrefetchPerUTLB[i], st.DeferredPerUTLB[i], st.StalledPerUTLB[i])
	}
	return b.String()
}
