package gpu

import "guvm/internal/mem"

// AccessCounters is the GPU's per-VABlock access-counter facility. Real
// NVIDIA hardware since Volta carries such counters; the paper's related
// work (Ganguly et al.) calls them "existing but sparsely utilized" and
// the paper itself notes the LRU evictor is blind because "the UVM driver
// has no information about page hits" (§5.4). The device increments a
// block's counter on every *resident* (non-faulting) access; the driver
// may read and clear them to make hit-aware policy decisions.
type AccessCounters struct {
	counts mem.BlockDir[uint64]
	// Granularity rounds page accesses to counter buckets; the paper's
	// hardware aggregates at large granularity. We count per VABlock.
	enabled bool
	// threshold, when non-zero, makes recordRemote report the exact
	// access on which a block's counter crosses it (the access-counter
	// architecture's migration trigger).
	threshold uint64
}

// NewAccessCounters returns a disabled counter bank (matching the real
// driver, which leaves the feature off by default).
func NewAccessCounters() *AccessCounters {
	return &AccessCounters{}
}

// Enable turns counting on.
func (c *AccessCounters) Enable() { c.enabled = true }

// Enabled reports whether counting is on.
func (c *AccessCounters) Enabled() bool { return c.enabled }

// record notes k resident accesses to block b.
func (c *AccessCounters) record(b mem.VABlockID, k uint64) {
	if !c.enabled {
		return
	}
	c.add(b, k)
}

// add adds k to block b's counter and returns the new count.
func (c *AccessCounters) add(b mem.VABlockID, k uint64) uint64 {
	n, _ := c.counts.Get(b)
	n += k
	c.counts.Set(b, n)
	return n
}

// SetThreshold arms the crossing signal recordRemote reports (0 disarms).
func (c *AccessCounters) SetThreshold(t uint64) { c.threshold = t }

// recordRemote notes one remote (host-memory) access to page p and
// reports whether the block's counter crossed the armed threshold on
// exactly this access — true at most once per Clear cycle.
func (c *AccessCounters) recordRemote(p mem.PageID) bool {
	if !c.enabled {
		return false
	}
	n := c.add(p.VABlock(), 1)
	return c.threshold > 0 && n == c.threshold
}

// Read returns the counter for a block.
func (c *AccessCounters) Read(b mem.VABlockID) uint64 { return c.counts.Lookup(b) }

// Clear zeroes one block's counter (the driver clears on eviction).
func (c *AccessCounters) Clear(b mem.VABlockID) { c.counts.Delete(b) }

// Total returns the summed counters (diagnostics).
func (c *AccessCounters) Total() uint64 {
	var t uint64
	c.counts.Range(func(_ mem.VABlockID, v uint64) bool {
		t += v
		return true
	})
	return t
}
