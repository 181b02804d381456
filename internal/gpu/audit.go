package gpu

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
)

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

// Digest returns the FNV-1a digest of the canonical device state, read in
// place: fault-buffer occupancy, kernel progress, per-µTLB pending,
// prefetch, deferred and stalled populations, every pending fault page
// (replayable then prefetch, per µTLB, in insertion order) and the
// accumulated statistics. At a clean end of run every occupancy must be
// zero: a non-empty µTLB after the queue drained means a lost fault.
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

// Dump summarises the canonical device state, read in place like Digest,
// for divergence diagnostics: one line per µTLB that holds anything.
func (d *Device) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu: buffer %d, running %v, live blocks %d (next %d), stats %+v\n",
		d.Buffer.Len(), d.launched, d.liveBlocks, d.nextBlock, d.stats)
	for i, u := range d.utlbs {
		pending, prefetch := u.pending.len(), u.prefetchPending.len()
		deferred, stalled := len(u.deferred), len(u.stalled)
		if pending+prefetch+deferred+stalled == 0 {
			continue
		}
		fmt.Fprintf(&b, "  utlb %d: %d pending, %d prefetch, %d deferred, %d stalled warps\n",
			i, pending, prefetch, deferred, stalled)
	}
	return b.String()
}
