package uvm

// observer.go — the driver's one observer seam. The auditor, the obs
// layer and its fault-lifecycle profiler all attach here (uvm must not
// import them, so the seam is built only from gpu/mem/sim/trace types).
//
// The driver reports three kinds of events, all on the simulation
// goroutine and all *after* the model state they describe is final:
//
//	FetchInstallment — one fault-buffer drain installment completed
//	BlockServiced    — one VABlock finished the block-step pipeline,
//	                   with its per-step cost decomposition
//	EndBatch         — the batch record landed in the collector
//
// An observer must be inert: it may only read the arguments during the
// call (the fault slices are driver-owned scratch) and must not schedule
// events, draw randomness, or mutate model state. With nothing attached
// each hook site pays one slice-length check — the allocation guard and
// the digest goldens pin that the disabled path is bit-identical.

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// Observer watches completed batches. Implementations must not retain
// the slices or pointers passed in — copy what outlives the call.
type Observer interface {
	// EndBatch reports batch id: its record has landed in the collector
	// (rec.Stages() decomposes its time), the service slot is released,
	// and the next batch has not started, so Driver.ServicedBlocks still
	// lists the batch's serviced blocks. faults are the batch's fetched
	// fault records in fetch order.
	EndBatch(id int, rec *trace.BatchRecord, faults []gpu.Fault)
}

// StageObserver is an Observer that also watches the pipeline inside
// each batch.
type StageObserver interface {
	Observer
	// FetchInstallment reports one buffer-drain installment: faults were
	// read from the fault buffer and their MMIO read cost elapses at
	// done. Called once per installment, in batch order.
	FetchInstallment(done sim.Time, faults []gpu.Fault)
	// BlockServiced reports one VABlock completing the block-step
	// pipeline. steps holds the per-step virtual-time costs in the
	// architecture's declared block-step order (ArchitectureInfo.BlockSteps
	// is the label contract); its length is fixed for the driver's
	// lifetime but driver-owned — copy, don't retain. total is the block's
	// full cost including the fixed per-VABlock management charge. pages
	// counts the faulted pages serviced (0 for an eager cross-block
	// migration); eager marks cross-block whole-block migrations.
	BlockServiced(bid mem.VABlockID, pages int, eager bool, steps []sim.Time, total sim.Time)
}

// Observe registers o; call it before the run starts. Observers run in
// registration order. Whether o is a StageObserver is decided
// here, once, so an observer of batch ends alone is never called per
// fault installment or per block.
func (d *Driver) Observe(o Observer) {
	d.observers = append(d.observers, o)
	if so, ok := o.(StageObserver); ok {
		d.stageObs = append(d.stageObs, so)
	}
}
