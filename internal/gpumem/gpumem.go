// Package gpumem models the GPU physical memory allocator behind the UVM
// driver: device memory carved into 2 MB chunks (the granularity at which
// UVM obtains memory from the nvidia resource manager and at which it
// evicts, §2.2). The driver maps VABlocks onto chunks; this package owns
// the pool, the free list, and the usage accounting.
package gpumem

import (
	"fmt"

	"guvm/internal/mem"
)

// ChunkID identifies one 2 MB physical chunk.
type ChunkID int

// Stats describes allocator activity.
type Stats struct {
	Allocs       int
	Frees        int
	FailedAllocs int
	PeakInUse    int
}

// Allocator hands out 2 MB chunks from a fixed-size pool. Chunks are
// recycled LIFO (hot chunks first), matching the resource manager's
// behaviour closely enough for cost purposes. The zero value is unusable;
// construct with New.
type Allocator struct {
	capacity int
	free     []ChunkID
	// ChunkIDs are dense 0..capacity-1, so ownership is a flat slice
	// indexed by chunk plus a liveness bitmap — no per-lookup hashing on
	// the eviction and audit paths.
	owner []mem.VABlockID // backing VABlock per chunk, valid while live
	live  []uint64        // liveness bitmap, one bit per chunk
	stats Stats
}

func (a *Allocator) isLive(id ChunkID) bool {
	return a.live[id>>6]&(1<<(uint(id)&63)) != 0
}

// New builds an allocator over capacityBytes of device memory. It panics
// if the capacity cannot hold at least one chunk.
func New(capacityBytes uint64) *Allocator {
	n := int(capacityBytes / mem.VABlockSize)
	if n < 1 {
		panic(fmt.Sprintf("gpumem: capacity %d below one chunk", capacityBytes))
	}
	a := &Allocator{
		capacity: n,
		free:     make([]ChunkID, 0, n),
		owner:    make([]mem.VABlockID, n),
		live:     make([]uint64, (n+63)/64),
	}
	// Stack the free list so chunk 0 pops first.
	for i := n - 1; i >= 0; i-- {
		a.free = append(a.free, ChunkID(i))
	}
	return a
}

// Capacity returns the total chunk count.
func (a *Allocator) Capacity() int { return a.capacity }

// InUse returns the live chunk count.
func (a *Allocator) InUse() int { return a.capacity - len(a.free) }

// Free returns the available chunk count.
func (a *Allocator) Free() int { return len(a.free) }

// Full reports whether no chunks remain.
func (a *Allocator) Full() bool { return len(a.free) == 0 }

// Stats returns a copy of the allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }

// Alloc assigns a chunk to back the given VABlock. It reports failure
// (and counts it — UVM's eviction path begins with a failed allocation)
// when the pool is exhausted.
func (a *Allocator) Alloc(block mem.VABlockID) (ChunkID, bool) {
	if len(a.free) == 0 {
		a.stats.FailedAllocs++
		return -1, false
	}
	id := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.owner[id] = block
	a.live[id>>6] |= 1 << (uint(id) & 63)
	a.stats.Allocs++
	if inUse := a.InUse(); inUse > a.stats.PeakInUse {
		a.stats.PeakInUse = inUse
	}
	return id, true
}

// Release returns a chunk to the pool. It panics on double free or on a
// chunk the allocator never issued — both driver bugs.
func (a *Allocator) Release(id ChunkID) {
	if id < 0 || int(id) >= a.capacity {
		panic(fmt.Sprintf("gpumem: release of invalid chunk %d", id))
	}
	if !a.isLive(id) {
		panic(fmt.Sprintf("gpumem: double free of chunk %d", id))
	}
	a.live[id>>6] &^= 1 << (uint(id) & 63)
	a.free = append(a.free, id)
	a.stats.Frees++
}

// Owner returns the VABlock a live chunk backs.
func (a *Allocator) Owner(id ChunkID) (mem.VABlockID, bool) {
	if id < 0 || int(id) >= a.capacity || !a.isLive(id) {
		return 0, false
	}
	return a.owner[id], true
}
