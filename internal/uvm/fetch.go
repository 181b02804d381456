package uvm

// fetch.go — the asynchronous front-end of the batch pipeline: interrupt
// wake-up, service-slot arbitration, and the fault-buffer drain loop
// (§2.2's default retrieval policy). Fetch is the one phase that is not
// a synchronous stage: reading the buffer takes virtual time, so faults
// arriving during the drain extend the batch, and the drain re-schedules
// itself until the batch limit is reached or the buffer stays empty.

import "guvm/internal/sim"

// onInterrupt is the device's interrupt line: wake the worker if asleep.
func (d *Driver) onInterrupt() {
	if d.dead {
		return
	}
	if !d.sleeping {
		d.stats.SpuriousWakeUps++
		return
	}
	d.sleeping = false
	d.stats.WakeUps++
	d.eng.Schedule(d.cfg.Costs.WakeupLatency, d.startFn)
}

// startBatch opens a batch: acquire the (possibly shared) service slot,
// charge setup, then drain the buffer.
func (d *Driver) startBatch() {
	if d.inBatch || d.dead {
		return
	}
	if d.dev.Buffer.Len() == 0 {
		d.sleeping = true
		return
	}
	d.inBatch = true
	if d.arbiter != nil {
		d.arbiter.Acquire(d.beginFn)
		return
	}
	d.beginBatch()
}

// beginBatch runs once the service slot is held: the batch starts now,
// and its first fetch follows the setup cost.
func (d *Driver) beginBatch() {
	bc := &d.batch
	bc.start = d.eng.Now()
	bc.faults = d.faultBuf[:0]
	bc.tFetch = 0
	d.eng.Schedule(d.cfg.Costs.BatchSetup, d.fetchFn)
}

// fetchLoop reads fault records until the batch limit is reached or the
// buffer stays empty. Reading takes time (MMIO/BAR reads are slow), so
// each drain installment is followed by fetched, which re-checks the
// buffer and hands the completed batch to the stage pipeline.
func (d *Driver) fetchLoop() {
	bc := &d.batch
	n0 := len(bc.faults)
	bc.faults = d.dev.Buffer.FetchInto(bc.faults, d.effBatch-n0)
	d.faultBuf = bc.faults
	got := bc.faults[n0:]
	cost := sim.Time(len(got)) * d.cfg.Costs.FetchPerFault
	bc.tFetch += cost
	for _, o := range d.stageObs {
		o.FetchInstallment(d.eng.Now()+cost, got)
	}
	d.eng.Schedule(cost, d.fetchedFn)
}

// fetched ends a drain installment: drain again while the batch has room
// and faults wait, else service the batch.
func (d *Driver) fetched() {
	if len(d.batch.faults) < d.effBatch && d.dev.Buffer.Len() > 0 {
		d.fetchLoop()
		return
	}
	d.serviceBatch()
}
