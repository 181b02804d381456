package uvm

import "testing"

// pr8AllocsPerOp is BenchmarkBatchService's allocs/op as measured after
// the PR-8 allocation diet: the calendar-queue engine swap, the
// struct-of-arrays dedup stage, and the pooled GPU event path.
const pr8AllocsPerOp = 6988

// TestBatchServiceAllocGuard pins the hot-path allocation diet: with no
// batch observers attached (the default), BenchmarkBatchService must
// allocate what the frozen PR-8 measurement recorded. A regression here
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
	if got > pr8AllocsPerOp*1.05 {
		t.Fatalf("disabled-observability allocs/op regressed: %.0f, baseline %d (+%.1f%%)",
			got, pr8AllocsPerOp, 100*(got/pr8AllocsPerOp-1))
	}
	// Hard ceiling: the pre-diet PR-5 freeze. Drifting anywhere near it
	// means the struct-of-arrays work has been undone wholesale, not
	// jittered — fail regardless of the PR-8 baseline.
	const pr5AbsolutePin = 39404
	if got >= pr5AbsolutePin {
		t.Fatalf("allocs/op %.0f reached the pre-diet PR-5 pin %d", got, pr5AbsolutePin)
	}
	t.Logf("allocs/op %.0f vs baseline %d (absolute pin %d)", got, pr8AllocsPerOp, pr5AbsolutePin)
}
