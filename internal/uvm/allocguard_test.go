package uvm

import "testing"

// batchServiceAllocsPerOp is BenchmarkBatchService's allocs/op as
// measured after the allocation diet (the struct-of-arrays dedup stage,
// the pooled GPU event path), the delay-lane event queue, whose lanes
// are recycled where the calendar queue it replaced reallocated its
// bucket ring on every resize (6988 before it), the run-encoded warp
// programs with map-free µTLB tables and a reused fault-batch buffer
// (5667 before them), and the typed radix tree, whose leaves store DMA
// addresses without boxing one per mapped page (5512 before it), and the
// run-at-a-time resident path, on which only an access that waits on a
// fault is a record, held by value (1419 before it), and the batch path
// that allocates only its log slot and one exact-size copy of each
// per-batch list, with no per-SM histogram and no per-batch closures
// (1295 before it), and the record without a serviced-block copy (1100
// before it).
const batchServiceAllocsPerOp = 1052

// oversubAllocsPerOp is BenchmarkBatchServiceOversub's allocs/op as
// measured once migration spans came straight from the residency sets,
// the eviction victim list was pooled in the batch scratch, the engine
// ran on the delay-lane queue (14100 before it), warp programs, µTLB
// tables and the fault-batch buffer stopped allocating per op, entry and
// batch (12656 before them), and the radix tree stopped boxing a value
// per DMA-mapped page (10499 before it), resident accesses stopped
// being pooled records (2311 before it), a batch stopped allocating
// beyond its log slot and exact-size list copies (2170 before it), and
// the record lost its serviced-block copy (1657 before it).
const oversubAllocsPerOp = 1600

// TestBatchServiceAllocGuard pins the hot-path allocation diet: with no
// batch observers attached (the default), BenchmarkBatchService must
// allocate what the frozen measurement recorded. A regression here
// means map churn or per-event allocation leaked back into the
// batch-service path.
func TestBatchServiceAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the batch-service benchmark; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkBatchService)
	got := float64(res.AllocsPerOp())
	// The pipeline is deterministic, so allocs/op barely moves between
	// runs; 5% headroom absorbs map-growth jitter across Go versions.
	if got > batchServiceAllocsPerOp*1.05 {
		t.Fatalf("disabled-observability allocs/op regressed: %.0f, baseline %d (+%.1f%%)",
			got, batchServiceAllocsPerOp, 100*(got/batchServiceAllocsPerOp-1))
	}
	// Hard ceiling: the pre-diet PR-5 freeze. Drifting anywhere near it
	// means the struct-of-arrays work has been undone wholesale, not
	// jittered — fail regardless of the PR-8 baseline.
	const pr5AbsolutePin = 39404
	if got >= pr5AbsolutePin {
		t.Fatalf("allocs/op %.0f reached the pre-diet PR-5 pin %d", got, pr5AbsolutePin)
	}
	t.Logf("allocs/op %.0f vs baseline %d (absolute pin %d)", got, batchServiceAllocsPerOp, pr5AbsolutePin)
}

// TestBatchServiceOversubAllocGuard pins the oversubscribed pipeline
// (tree prefetch, LRU eviction in every batch) under the same 5% rule:
// a regression here means per-eviction or per-migration staging
// allocations came back.
func TestBatchServiceOversubAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the oversubscribed benchmark; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkBatchServiceOversub)
	got := float64(res.AllocsPerOp())
	if got > oversubAllocsPerOp*1.05 {
		t.Fatalf("oversubscribed allocs/op regressed: %.0f, baseline %d (+%.1f%%)",
			got, oversubAllocsPerOp, 100*(got/oversubAllocsPerOp-1))
	}
	t.Logf("allocs/op %.0f vs baseline %d", got, oversubAllocsPerOp)
}
