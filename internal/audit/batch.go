package audit

import (
	"fmt"

	"guvm/internal/mem"
	"guvm/internal/trace"
)

// checkBatchRecord validates the self-consistency of one batch record and
// its serviced-block list (uvm.Driver.ServicedBlocks) — the invariants
// that hold for the batch alone, with no model state: fault accounting,
// histogram sums, byte/page agreement and time-component sanity. workers
// is the driver's servicing concurrency (see checkBatchTimes). seen is
// the set it finds repeated serviced blocks in, supplied by the caller;
// the auditor passes one it reuses, so an audited batch allocates
// nothing. It clears seen first. It returns the violation with Batch and
// At unset (the caller stamps detection context), or nil.
func checkBatchRecord(rec *trace.BatchRecord, serviced []mem.VABlockID, workers int, seen map[mem.VABlockID]bool) *ViolationError {
	if workers < 1 {
		workers = 1
	}
	if got := rec.UniquePages + rec.Type1Dups + rec.Type2Dups; got != rec.RawFaults {
		return &ViolationError{
			Check: "fault-accounting",
			Detail: fmt.Sprintf("unique %d + type1 dups %d + type2 dups %d = %d, want raw faults %d",
				rec.UniquePages, rec.Type1Dups, rec.Type2Dups, got, rec.RawFaults),
		}
	}
	if rec.StalePages > rec.UniquePages {
		return &ViolationError{
			Check:  "fault-accounting",
			Detail: fmt.Sprintf("stale pages %d > unique pages %d", rec.StalePages, rec.UniquePages),
		}
	}
	// The histogram stores uint16 cells, which a batch (at most
	// uvm.MaxBatchSize faults) cannot overflow, so it sums back exactly.
	sum := 0
	for _, n := range rec.VABlockFaults {
		sum += int(n)
	}
	if sum != int(rec.RawFaults) {
		return &ViolationError{
			Check:  "fault-accounting",
			Detail: fmt.Sprintf("per-VABlock histogram sums to %d, want raw faults %d", sum, rec.RawFaults),
		}
	}
	// VABlocks counts the distinct blocks serviced for faults; the raw
	// histogram may cover more (all-stale blocks), the serviced list may
	// cover more (cross-block prefetch), and the serviced list must not
	// repeat a block.
	if int(rec.VABlocks) > len(rec.VABlockFaults) {
		return &ViolationError{
			Check:  "fault-accounting",
			Detail: fmt.Sprintf("%d serviced fault blocks > %d blocks with raw faults", rec.VABlocks, len(rec.VABlockFaults)),
		}
	}
	if len(serviced) < int(rec.VABlocks) {
		return &ViolationError{
			Check:  "fault-accounting",
			Detail: fmt.Sprintf("%d serviced blocks listed, want at least %d", len(serviced), rec.VABlocks),
		}
	}
	clear(seen)
	for _, bid := range serviced {
		if seen[bid] {
			return &ViolationError{
				Check:  "fault-accounting",
				Detail: fmt.Sprintf("block %d serviced twice in one batch", bid),
			}
		}
		seen[bid] = true
	}
	if want := uint64(rec.PagesMigrated) * mem.PageSize; rec.BytesMigrated != want {
		return &ViolationError{
			Check:  "fault-accounting",
			Detail: fmt.Sprintf("migrated %d bytes, want %d pages x %d", rec.BytesMigrated, rec.PagesMigrated, mem.PageSize),
		}
	}
	return checkBatchTimes(rec, workers)
}

// checkBatchTimes verifies the timer components: none negative, and their
// sum within workers x the batch duration (the remainder is batch setup
// and replay issue, per the trace contract). Time components record
// aggregate work across workers while the batch duration is the parallel
// makespan, so the sum bound relaxes to workers x duration (any
// work-conserving schedule has makespan >= total work / workers).
func checkBatchTimes(rec *trace.BatchRecord, workers int) *ViolationError {
	if rec.End < rec.Start {
		return &ViolationError{
			Check:  "batch-times",
			Detail: fmt.Sprintf("batch ends at %d ns before it starts at %d ns", rec.End, rec.Start),
		}
	}
	components := []struct {
		name string
		t    int64
	}{
		{"TFetch", int64(rec.TFetch)}, {"TDedup", int64(rec.TDedup)},
		{"TBlockMgmt", int64(rec.TBlockMgmt)}, {"TPopulate", int64(rec.TPopulate)},
		{"TPageTable", int64(rec.TPageTable)}, {"TDMAMap", int64(rec.TDMAMap)},
		{"TUnmap", int64(rec.TUnmap)}, {"TTransfer", int64(rec.TTransfer)},
		{"TEvict", int64(rec.TEvict)}, {"TReplay", int64(rec.TReplay)},
	}
	var sum int64
	for _, c := range components {
		if c.t < 0 {
			return &ViolationError{
				Check:  "batch-times",
				Detail: fmt.Sprintf("%s is negative: %d ns", c.name, c.t),
			}
		}
		sum += c.t
	}
	if d := int64(rec.Duration()); sum > int64(workers)*d {
		return &ViolationError{
			Check: "batch-times",
			Detail: fmt.Sprintf("time components sum to %d ns > batch duration %d ns x %d workers",
				sum, d, workers),
		}
	}
	return nil
}
