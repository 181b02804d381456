package trace

import (
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// TestRunLogsGrowByDoubling: a run log appended one record at a time
// copies itself about once, so the arrays it allocates along the way
// hold at most about twice its final capacity. Past 256 elements
// append's step falls from 2× toward 1.25×, and its arrays add up to 2.5
// to 5 times the final capacity.
func TestRunLogsGrowByDoubling(t *testing.T) {
	const bound = 2.1
	check := func(log string, n, allocated, final int) {
		t.Helper()
		if float64(allocated) > bound*float64(final) {
			t.Errorf("%s after %d appends: arrays of %d records in all, want at most %.1f × final capacity %d",
				log, n, allocated, bound, final)
		}
	}
	for _, n := range []int{1000, 3000, 10000} {
		var c Collector
		batches, last := 0, 0
		for range n {
			c.AddBatch(BatchRecord{})
			if cap(c.Batches) != last {
				last = cap(c.Batches)
				batches += last
			}
		}
		check("batch log", n, batches, cap(c.Batches))

		c = Collector{KeepFaults: true}
		faults := make([]gpu.Fault, 7)
		faultArrays, ids, lastFaults, lastIDs := 0, 0, 0, 0
		for id := range n {
			c.AddFaults(id, faults)
			if cap(c.Faults) != lastFaults {
				lastFaults = cap(c.Faults)
				faultArrays += lastFaults
			}
			if cap(c.FaultBatch) != lastIDs {
				lastIDs = cap(c.FaultBatch)
				ids += lastIDs
			}
		}
		check("fault log", n, faultArrays, cap(c.Faults))
		check("fault batch IDs", n, ids, cap(c.FaultBatch))

		c = Collector{KeepSpans: true}
		spans := make([]mem.Span, 3)
		spanArrays, spanIDs, lastSpans, lastSpanIDs := 0, 0, 0, 0
		for id := range n {
			c.AddSpans(id, spans)
			if cap(c.Spans) != lastSpans {
				lastSpans = cap(c.Spans)
				spanArrays += lastSpans
			}
			if cap(c.SpanBatch) != lastSpanIDs {
				lastSpanIDs = cap(c.SpanBatch)
				spanIDs += lastSpanIDs
			}
		}
		check("span log", n, spanArrays, cap(c.Spans))
		check("span batch IDs", n, spanIDs, cap(c.SpanBatch))
	}
}
