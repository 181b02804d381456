package obs

// profiler.go — the fault-lifecycle attribution profiler: a
// uvm.StageObserver on the driver's observer seam. It turns the
// pipeline's stage events into
//
//   - per-fault lifecycle latency histograms over the mark grammar
//     arrival → buffered → fetched → batched → deduped → serviced →
//     replayed (DESIGN.md §14 defines each mark),
//   - a paper-style batch-time breakdown attributing every batch's
//     virtual time across the stages of trace.BatchRecord.Stages,
//   - per-batch critical-path records (serial block-cost sum vs the
//     actual service window, and the most expensive VABlock with its
//     step decomposition),
//   - per-VABlock/per-page heat accounting, and
//   - optional Chrome-trace block-step spans (LaneBlocks).
//
// Everything is deterministic sim-time arithmetic: no wall clock, no
// maps on the record path (the heat directory is a mem.BlockDir), no
// randomness, and no reads of model state beyond the hook arguments —
// the same zero-perturbation contract as the rest of the obs layer,
// pinned by the digest-equality tests at the repository root.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// Lifecycle stage indexes (one latency histogram each). The names are
// the transitions of the mark grammar, in order.
const (
	lifeArrivalToBuffered  = iota // GMMU latency + injected re-deliveries
	lifeBufferedToFetched         // wait in the fault buffer
	lifeFetchedToBatched          // wait for the batch to finish forming
	lifeBatchedToDeduped          // dedup stage (batch-wide, per fault)
	lifeDedupedToServiced         // wait for the fault's VABlock to finish
	lifeServicedToReplayed        // wait for batch replay
	numLifecycle
)

var lifecycleNames = [numLifecycle]string{
	"arrival_to_buffered",
	"buffered_to_fetched",
	"fetched_to_batched",
	"batched_to_deduped",
	"deduped_to_serviced",
	"serviced_to_replayed",
}

// lifeStat accumulates one lifecycle transition exactly (count/sum/min/
// max in integer nanoseconds) alongside its registry histogram (µs).
type lifeStat struct {
	count    uint64
	sum      sim.Time
	min, max sim.Time
	hist     *Metric
}

func (s *lifeStat) observe(d sim.Time) {
	if d < 0 {
		d = 0
	}
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if s.count == 0 || d > s.max {
		s.max = d
	}
	s.count++
	s.sum += d
	s.hist.Observe(d.Micros())
}

// stageStat accumulates one attribution stage: total virtual time, the
// number of batches that spent anything there, and a per-batch
// histogram (µs).
type stageStat struct {
	total   sim.Time
	batches uint64
	hist    *Metric
}

func (s *stageStat) observe(d sim.Time) {
	if d <= 0 {
		return
	}
	s.total += d
	s.batches++
	s.hist.Observe(d.Micros())
}

// blockRec is one serviced VABlock within the current batch. The
// service-stage (non-eager) records form an ascending prefix — the
// dedup stage sorts pages, so per-fault lookup is a binary search, not
// a map.
type blockRec struct {
	bid    mem.VABlockID
	steps  [maxBlockSteps]sim.Time
	total  sim.Time
	endOff sim.Time // serial end offset within the service window
	pages  int
	eager  bool
}

// maxBlockSteps bounds the per-block step decomposition the profiler
// retains. Architectures declare their own block-step pipelines
// (uvm.ArchitectureInfo.BlockSteps); steps past the cap are dropped.
const maxBlockSteps = 8

// defaultStepLabels matches the host-driven block-step pipeline, used
// until SetBlockStepLabels installs the selected architecture's
// contract.
var defaultStepLabels = []string{"residency", "prefetch_plan", "populate", "transfer"}

// BatchProfile is one batch's retained critical-path record.
type BatchProfile struct {
	ID     int
	Start  sim.Time
	End    sim.Time
	Faults int
	Blocks int
	// SerialNS is the serial sum of per-block costs; ServiceNS is the
	// batch's actual service window (the parallel makespan under
	// ServiceWorkers > 1). SerialNS/ServiceNS is the achieved speedup.
	SerialNS  sim.Time
	ServiceNS sim.Time
	// CritBlock is the most expensive VABlock of the batch (the one a
	// parallel service cannot shrink below), with its cost and step
	// decomposition. Ties resolve to the earliest serviced block.
	CritBlock mem.VABlockID
	CritCost  sim.Time
	CritSteps [maxBlockSteps]sim.Time
}

// blockHeat is the per-VABlock heat account. pageCounts is indexed by
// page-in-block; a uint32 per page bounds the footprint at 2 KB per
// touched block.
type blockHeat struct {
	faults     uint64
	services   uint64
	eager      uint64
	cost       sim.Time
	pagesSeen  int
	pageCounts [mem.PagesPerVABlock]uint32
}

// Profiler implements uvm.StageObserver. Construct with NewProfiler and
// register via Driver.Observe (guvm wires this when obs.Config.Profile
// is set).
type Profiler struct {
	tracer *Tracer
	reg    *Registry

	life   [numLifecycle]lifeStat
	stages [trace.NumStages]stageStat

	// stepLabels is the per-block step label contract in force — the
	// selected architecture's declared block-step names, underscored.
	stepLabels []string

	batches []BatchProfile
	heat    mem.BlockDir[*blockHeat]

	faultsTracked uint64

	// Pooled per-batch scratch, valid from the batch's first
	// FetchInstallment to its EndBatch.
	fetchAt  []sim.Time // per-fault fetch-completion time, batch order
	blocks   []blockRec
	nFaulted int      // non-eager prefix length of blocks
	serial   sim.Time // running serial block-cost layout cursor
}

// NewProfiler builds a profiler registering its histograms and totals
// on reg and, when tracer is non-nil, emitting LaneBlocks step spans.
func NewProfiler(tracer *Tracer, reg *Registry) *Profiler {
	p := &Profiler{tracer: tracer, reg: reg, stepLabels: defaultStepLabels}
	lifeBounds := []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	for i := range p.life {
		p.life[i].hist = reg.Histogram(
			"guvm_prof_lifecycle_"+lifecycleNames[i]+"_us",
			"Per-fault lifecycle latency ("+lifecycleNames[i]+") in virtual microseconds",
			lifeBounds)
	}
	stageBounds := []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}
	for i := range p.stages {
		p.stages[i].hist = reg.Histogram(
			"guvm_prof_stage_"+trace.StageNames[i]+"_us",
			"Per-batch time attributed to the "+trace.StageNames[i]+" stage in virtual microseconds",
			stageBounds)
	}
	// Scalar totals ride the sampler's column set (histograms do not),
	// so the breakdown is also a deterministic time series.
	for i := range p.stages {
		st := &p.stages[i]
		reg.Func("guvm_prof_stage_"+trace.StageNames[i]+"_ns_total",
			"Total virtual time attributed to the "+trace.StageNames[i]+" stage (ns)",
			func() float64 { return float64(st.total) })
	}
	reg.Func("guvm_prof_faults_tracked",
		"Faults with complete lifecycle attribution",
		func() float64 { return float64(p.faultsTracked) })
	return p
}

// FetchInstallment implements uvm.StageObserver: the first two
// lifecycle transitions are fully known per fault as soon as its drain
// installment completes.
func (p *Profiler) FetchInstallment(done sim.Time, faults []gpu.Fault) {
	for i := range faults {
		f := &faults[i]
		p.life[lifeArrivalToBuffered].observe(f.Time - f.Issued)
		p.life[lifeBufferedToFetched].observe(done - f.Time)
		p.fetchAt = append(p.fetchAt, done)
	}
}

// SetBlockStepLabels installs the selected architecture's block-step
// label contract (uvm.ArchitectureInfo.BlockSteps). Dashes become
// underscores to match the metric/CSV naming style; labels past
// maxBlockSteps are dropped. Call before the run; guvm wires this from
// the driver's architecture.
func (p *Profiler) SetBlockStepLabels(labels []string) {
	if p == nil || len(labels) == 0 {
		return
	}
	out := make([]string, 0, min(len(labels), maxBlockSteps))
	for _, l := range labels {
		if len(out) == maxBlockSteps {
			break
		}
		out = append(out, strings.ReplaceAll(l, "-", "_"))
	}
	p.stepLabels = out
}

// BlockServiced implements uvm.StageObserver: record the block's
// step decomposition and lay it out on the serial service cursor. steps
// is driver-owned scratch in the architecture's declared step order;
// it is copied here.
func (p *Profiler) BlockServiced(bid mem.VABlockID, pages int, eager bool, steps []sim.Time, total sim.Time) {
	p.serial += total
	if !eager && p.nFaulted == len(p.blocks) {
		p.nFaulted++
	}
	rec := blockRec{bid: bid, total: total, endOff: p.serial, pages: pages, eager: eager}
	copy(rec.steps[:min(len(steps), maxBlockSteps)], steps)
	p.blocks = append(p.blocks, rec)
}

// EndBatch implements uvm.Observer: fold the completed record's
// Stages into the breakdown, finish the per-fault lifecycle, account
// heat, retain the critical-path record, and emit trace spans.
func (p *Profiler) EndBatch(id int, rec *trace.BatchRecord, faults []gpu.Fault) {
	st := rec.Stages()
	for i := range p.stages {
		p.stages[i].observe(st[i])
	}

	// Per-fault lifecycle. The batch entered the stage pipeline after
	// setup and fetch. A fault is "serviced" when its VABlock's serial
	// layout slot ends (clamped into the service window: under parallel
	// service the serial layout can overflow it); stale-filtered faults
	// are serviced at dedup end.
	entered := rec.Start + st[trace.StageSetup] + st[trace.StageFetch]
	dedupEnd := entered + st[trace.StageDedup]
	replayStart := rec.End - st[trace.StageReplay]
	faulted := p.blocks[:p.nFaulted]
	for i := range faults {
		pg := faults[i].Page
		bid := pg.VABlock()
		servicedAt := dedupEnd
		j := sort.Search(len(faulted), func(j int) bool { return faulted[j].bid >= bid })
		if j < len(faulted) && faulted[j].bid == bid {
			servicedAt = dedupEnd + faulted[j].endOff
			if servicedAt > replayStart {
				servicedAt = replayStart
			}
		}
		p.life[lifeFetchedToBatched].observe(entered - p.fetchAt[i])
		p.life[lifeBatchedToDeduped].observe(st[trace.StageDedup])
		p.life[lifeDedupedToServiced].observe(servicedAt - dedupEnd)
		p.life[lifeServicedToReplayed].observe(rec.End - servicedAt)
		// Per-page heat: every raw fault heats its page.
		h := p.heatFor(bid)
		h.faults++
		idx := pg.IndexInBlock()
		if h.pageCounts[idx] == 0 {
			h.pagesSeen++
		}
		h.pageCounts[idx]++
	}
	p.faultsTracked += uint64(len(faults))

	// Per-block heat and the batch's critical path.
	var crit *blockRec
	for i := range p.blocks {
		b := &p.blocks[i]
		h := p.heatFor(b.bid)
		h.services++
		h.cost += b.total
		if b.eager {
			h.eager++
		}
		if crit == nil || b.total > crit.total {
			crit = b
		}
	}
	bp := BatchProfile{
		ID: id, Start: rec.Start, End: rec.End,
		Faults: len(faults), Blocks: len(p.blocks),
		SerialNS: p.serial, ServiceNS: serviceWindow(rec, &st),
	}
	if crit != nil {
		bp.CritBlock = crit.bid
		bp.CritCost = crit.total
		bp.CritSteps = crit.steps
	}
	p.batches = append(p.batches, bp)

	// Chrome-trace block steps: serial layout from dedup end, one span
	// per non-zero step plus the fixed per-block management charge.
	if p.tracer != nil {
		cursor := dedupEnd
		for i := range p.blocks {
			b := &p.blocks[i]
			var stepsSum sim.Time
			for _, s := range b.steps {
				stepsSum += s
			}
			p.tracer.lay(LaneBlocks, "block", "block_mgmt", &cursor, b.total-stepsSum, id)
			for s, d := range b.steps {
				if s < len(p.stepLabels) {
					p.tracer.lay(LaneBlocks, "block", p.stepLabels[s], &cursor, d, id)
				}
			}
		}
	}

	// Reset the pooled batch scratch.
	p.fetchAt = p.fetchAt[:0]
	p.blocks = p.blocks[:0]
	p.nFaulted = 0
	p.serial = 0
}

// heatFor returns (creating on first touch) the block's heat account.
func (p *Profiler) heatFor(bid mem.VABlockID) *blockHeat {
	if h := p.heat.Lookup(bid); h != nil {
		return h
	}
	h := &blockHeat{}
	p.heat.Set(bid, h)
	return h
}

// Batches returns the retained per-batch critical-path records.
func (p *Profiler) Batches() []BatchProfile {
	if p == nil {
		return nil
	}
	return p.batches
}

// BreakdownRow is one stage of the batch-time breakdown table.
type BreakdownRow struct {
	Stage    string
	TotalNS  int64
	SharePct float64
	Batches  uint64
	P50US    float64
	P95US    float64
}

// BreakdownRows returns the paper-style batch-time breakdown: for every
// attribution stage, its total virtual time, share of all attributed
// time, batches touched, and per-batch p50/p95. Rows are in fixed stage
// order; shares sum to 100 (up to rounding) whenever any time was
// attributed.
func (p *Profiler) BreakdownRows() []BreakdownRow {
	if p == nil {
		return nil
	}
	var sum sim.Time
	for i := range p.stages {
		sum += p.stages[i].total
	}
	rows := make([]BreakdownRow, 0, trace.NumStages)
	for i := range p.stages {
		st := &p.stages[i]
		share := 0.0
		if sum > 0 {
			share = 100 * float64(st.total) / float64(sum)
		}
		rows = append(rows, BreakdownRow{
			Stage:    trace.StageNames[i],
			TotalNS:  int64(st.total),
			SharePct: share,
			Batches:  st.batches,
			P50US:    st.hist.Quantile(0.50),
			P95US:    st.hist.Quantile(0.95),
		})
	}
	return rows
}

// WriteBreakdownCSV writes the batch-time breakdown table. Byte-
// deterministic for a given simulation (integer totals, fixed-precision
// shares, quantiles through the registry's stable formatter).
func (p *Profiler) WriteBreakdownCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "stage,total_ns,share_pct,batches,p50_us,p95_us\n"); err != nil {
		return err
	}
	for _, r := range p.BreakdownRows() {
		if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%d,%s,%s\n",
			r.Stage, r.TotalNS, r.SharePct, r.Batches,
			formatValue(r.P50US), formatValue(r.P95US)); err != nil {
			return err
		}
	}
	return nil
}

// WriteLifecycleCSV writes the per-fault lifecycle latency summary, one
// row per mark transition.
func (p *Profiler) WriteLifecycleCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "stage,faults,total_ns,min_ns,max_ns,p50_us,p95_us\n"); err != nil {
		return err
	}
	for i := range p.life {
		s := &p.life[i]
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%s,%s\n",
			lifecycleNames[i], s.count, int64(s.sum), int64(s.min), int64(s.max),
			formatValue(s.hist.Quantile(0.50)), formatValue(s.hist.Quantile(0.95))); err != nil {
			return err
		}
	}
	return nil
}

// WriteBatchesCSV writes one critical-path row per batch. The per-step
// columns follow the installed block-step label contract, so the header
// adapts to the selected architecture.
func (p *Profiler) WriteBatchesCSV(w io.Writer) error {
	var hdr strings.Builder
	hdr.WriteString("batch,start_ns,end_ns,faults,blocks,serial_ns,service_ns,crit_block,crit_cost_ns")
	for _, l := range p.stepLabels {
		hdr.WriteString(",crit_" + l + "_ns")
	}
	hdr.WriteString("\n")
	if _, err := io.WriteString(w, hdr.String()); err != nil {
		return err
	}
	for i := range p.batches {
		b := &p.batches[i]
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d",
			b.ID, int64(b.Start), int64(b.End), b.Faults, b.Blocks,
			int64(b.SerialNS), int64(b.ServiceNS),
			uint64(b.CritBlock), int64(b.CritCost)); err != nil {
			return err
		}
		for s := range p.stepLabels {
			if _, err := fmt.Fprintf(w, ",%d", int64(b.CritSteps[s])); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeatCSV writes the per-VABlock heat accounts in ascending block
// order: raw fault count, service passes (eager counted separately),
// total service cost, distinct pages faulted, and the hottest page.
func (p *Profiler) WriteHeatCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "block,faults,services,eager_services,cost_ns,pages_touched,hot_page,hot_count\n"); err != nil {
		return err
	}
	var werr error
	p.heat.Range(func(bid mem.VABlockID, h *blockHeat) bool {
		hotIdx, hotCount := 0, uint32(0)
		for i, c := range h.pageCounts {
			if c > hotCount {
				hotIdx, hotCount = i, c
			}
		}
		_, werr = fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			uint64(bid), h.faults, h.services, h.eager, int64(h.cost),
			h.pagesSeen, hotIdx, hotCount)
		return werr == nil
	})
	return werr
}

// BreakdownTable renders the breakdown as an aligned text table (the
// CLI's -profile stdout report).
func (p *Profiler) BreakdownTable() string {
	var buf writerBuf
	fmt.Fprintf(&buf, "%-14s %14s %9s %8s %10s %10s\n",
		"stage", "total_ns", "share", "batches", "p50_us", "p95_us")
	for _, r := range p.BreakdownRows() {
		fmt.Fprintf(&buf, "%-14s %14d %8.2f%% %8d %10s %10s\n",
			r.Stage, r.TotalNS, r.SharePct, r.Batches,
			formatValue(r.P50US), formatValue(r.P95US))
	}
	return string(buf)
}
