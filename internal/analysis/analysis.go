// Package analysis post-processes driver telemetry the way the paper's
// evaluation scripts do: batch service gaps, duplicate breakdowns,
// workload-imbalance metrics, and phase segmentation of batch-size
// series.
package analysis

import (
	"math"
	"sort"

	"guvm/internal/stats"
	"guvm/internal/trace"
)

// ServiceGaps summarizes the idle gaps between consecutive batches (end
// of one to start of the next): driver sleep plus interrupt and wakeup
// latency.
func ServiceGaps(batches []trace.BatchRecord) stats.Summary {
	if len(batches) < 2 {
		return stats.Summary{}
	}
	gaps := make([]float64, 0, len(batches)-1)
	for i := 1; i < len(batches); i++ {
		g := batches[i].Start - batches[i-1].End
		if g < 0 {
			g = 0
		}
		gaps = append(gaps, float64(g))
	}
	return stats.Summarize(gaps)
}

// DupBreakdown aggregates duplicate-fault composition over a run.
type DupBreakdown struct {
	Raw        int
	Unique     int
	Type1      int // same-µTLB duplicates
	Type2      int // cross-µTLB duplicates
	DupPercent float64
}

// Duplicates computes the run-wide duplicate breakdown (Figure 8's
// aggregate view).
func Duplicates(batches []trace.BatchRecord) DupBreakdown {
	var d DupBreakdown
	for i := range batches {
		b := &batches[i]
		d.Raw += int(b.RawFaults)
		d.Unique += int(b.UniquePages)
		d.Type1 += int(b.Type1Dups)
		d.Type2 += int(b.Type2Dups)
	}
	if d.Raw > 0 {
		d.DupPercent = 100 * float64(d.Type1+d.Type2) / float64(d.Raw)
	}
	return d
}

// Gini computes the Gini coefficient of a non-negative sample: 0 = fully
// balanced, ->1 = concentrated. Table 3's faults-per-VABlock imbalance —
// the reason per-VABlock driver parallelism load-balances poorly — is one
// number here.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		if x < 0 {
			x = 0
		}
		cum += float64(float64(i+1) * x) // rounded: see package stats
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// VABlockImbalance returns the Gini coefficient of per-VABlock fault
// counts pooled over all batches.
func VABlockImbalance(batches []trace.BatchRecord) float64 {
	var xs []float64
	for i := range batches {
		for _, c := range batches[i].VABlockFaults {
			xs = append(xs, float64(c))
		}
	}
	return Gini(xs)
}

// Phase is a contiguous run of batches with similar size.
type Phase struct {
	FirstBatch, LastBatch int
	MeanFaults            float64
}

// SegmentPhases splits a batch series into phases wherever the trailing
// window mean of raw batch size departs from the phase's opening window
// mean by more than relThreshold (e.g. 0.5 for 50%). Comparing window
// means (not single batches) keeps oscillating-but-stationary series —
// common when large and small batches alternate — in one phase. sgemm's
// "changes and phases of the batching behavior over time" (Figure 8)
// segment cleanly; stream yields a single phase.
func SegmentPhases(batches []trace.BatchRecord, window int, relThreshold float64) []Phase {
	n := len(batches)
	if n == 0 {
		return nil
	}
	if window < 1 {
		window = 1
	}
	// rolling[i] = mean of raw faults over batches (i-window, i].
	rolling := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(batches[i].RawFaults)
		if i >= window {
			sum -= float64(batches[i-window].RawFaults)
		}
		span := i + 1
		if span > window {
			span = window
		}
		rolling[i] = sum / float64(span)
	}
	meanOf := func(lo, hi int) float64 { // inclusive
		var s float64
		for i := lo; i <= hi; i++ {
			s += float64(batches[i].RawFaults)
		}
		return s / float64(hi-lo+1)
	}
	var phases []Phase
	start := 0
	baseline := rolling[min(n-1, window-1)]
	for i := 1; i < n; i++ {
		if i-start < window {
			continue // window must refill with in-phase batches
		}
		if math.Abs(rolling[i]-baseline)/math.Max(baseline, 1) > relThreshold {
			// Locate the changepoint: the largest consecutive jump
			// within the trailing window.
			cut := i - window + 1
			if cut <= start {
				cut = start + 1
			}
			best := cut
			var bestJump float64
			for j := cut; j <= i; j++ {
				jump := math.Abs(float64(batches[j].RawFaults) - float64(batches[j-1].RawFaults))
				if jump > bestJump {
					bestJump = jump
					best = j
				}
			}
			cut = best
			phases = append(phases, Phase{FirstBatch: start, LastBatch: cut - 1, MeanFaults: meanOf(start, cut-1)})
			start = cut
			end := start + window - 1
			if end >= n {
				end = n - 1
			}
			baseline = meanOf(start, end)
		}
	}
	phases = append(phases, Phase{FirstBatch: start, LastBatch: n - 1, MeanFaults: meanOf(start, n-1)})
	return phases
}

// CostShares decomposes total batch time into component shares.
type CostShares struct {
	Fetch, Dedup, BlockMgmt, Populate, PageTable float64
	DMAMap, Unmap, Transfer, Evict, Replay       float64
	// Other is the rest of the batch time — batch setup plus service
	// time no component timer covers — clamped at 0 when parallel
	// service overlaps the components.
	Other float64
}

// Shares computes run-wide time shares per servicing component — the
// "where does batch time actually go" summary behind §4/§5. Each share
// sums one stage of trace.BatchRecord.Stages over the run, divided by
// the summed batch durations.
func Shares(batches []trace.BatchRecord) CostShares {
	var sum [trace.NumStages]float64
	var total float64
	for i := range batches {
		b := &batches[i]
		total += float64(b.Duration())
		for k, d := range b.Stages() {
			sum[k] += float64(d)
		}
	}
	if total == 0 {
		return CostShares{}
	}
	s := CostShares{
		Fetch:     sum[trace.StageFetch] / total,
		Dedup:     sum[trace.StageDedup] / total,
		BlockMgmt: sum[trace.StageBlockMgmt] / total,
		Populate:  sum[trace.StagePopulate] / total,
		PageTable: sum[trace.StagePageTable] / total,
		DMAMap:    sum[trace.StageDMAMap] / total,
		Unmap:     sum[trace.StageUnmap] / total,
		Transfer:  sum[trace.StageTransfer] / total,
		Evict:     sum[trace.StageEvict] / total,
		Replay:    sum[trace.StageReplay] / total,
	}
	known := s.Fetch + s.Dedup + s.BlockMgmt + s.Populate + s.PageTable +
		s.DMAMap + s.Unmap + s.Transfer + s.Evict + s.Replay
	s.Other = max(1-known, 0)
	return s
}
