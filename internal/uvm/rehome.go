package uvm

// rehome.go — device-loss recovery. When the hardware fault domain
// kills a device, its driver evacuates every GPU-resident page back to
// host memory over the (still physically present) link before the link
// itself is declared dead, releases all device chunks, and parks
// forever. The protocol guarantees page conservation: the number of
// pages re-homed must equal the number resident at the instant of
// death, which the audit subsystem's page-conservation invariant
// checks. The evacuation uses the link's guaranteed-delivery path — an
// emergency drain ignores flap drops, as a real driver's teardown DMA
// retries until completion — and its cost is charged to the virtual
// clock by the caller.
//
// The injector's kill schedule runs here too: the driver whose
// device it names kills that device at the end of batch KillBatch,
// after the batch observers (so an auditor checks that batch first).

import (
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// RehomeReport summarizes one device-loss evacuation.
type RehomeReport struct {
	// Blocks is how many chunk-backed VABlocks were torn down; Pages
	// and Bytes the resident data written back to the host.
	Blocks int
	Pages  int
	Bytes  uint64
	// Cost is the virtual time of the writeback transfers; the caller
	// schedules it so the run's total time covers the recovery drain.
	Cost sim.Time
}

// killDue reports whether the hardware kill schedule ends this driver's
// device at the batch just completed.
func (d *Driver) killDue() bool {
	if !d.hw {
		return false
	}
	c := d.inj.Config()
	return c.KillBatch == d.batchCount && c.KillDevice == d.index
}

// killDevice runs the device-death schedule at a batch boundary: kill
// the device, re-home its pages, note the kill in the injector ledger,
// declare the link dead, record the recovery with the arbiter, and
// charge the drain to the engine so total time covers it. Surviving
// devices keep running.
func (d *Driver) killDevice() {
	d.dev.Kill()
	rep := d.RehomeToHost()
	d.inj.NoteDeviceKilled()
	d.link.Kill()
	if d.arbiter != nil {
		d.arbiter.NoteRehome(RehomeRecord{
			Device: d.index,
			Batch:  d.batchCount,
			Blocks: rep.Blocks,
			Pages:  rep.Pages,
			Bytes:  rep.Bytes,
			At:     d.eng.Now(),
		})
	}
	d.eng.Schedule(rep.Cost, func() {})
}

// RehomeToHost evacuates every GPU-resident page of this driver back to
// host memory and marks the driver dead. Call only at a batch boundary
// (no batch in flight) after killing the device; a second call is a
// no-op. The evacuated data lands in host memory without CPU remapping,
// exactly like eviction writeback.
func (d *Driver) RehomeToHost() RehomeReport {
	if d.dead {
		return RehomeReport{}
	}
	d.dead = true
	d.sleeping = true
	d.stats.ResidentAtKill = d.ResidentPages()

	var rep RehomeReport
	var spans []mem.Span
	// Walk the chunk-backed blocks in allocation order (deterministic);
	// blocks without a chunk hold no resident pages by invariant.
	for _, b := range d.allocated {
		if n := b.resident.Count(); n > 0 {
			spans = b.resident.Spans(spans[:0], b.id)
			rep.Cost += d.link.TransferSpans(spans, false)
			rep.Pages += n
		}
		b.resident.Reset()
		b.hasChunk = false
		if d.dev != nil {
			d.dev.Counters.Clear(b.id)
		}
		d.pmm.Release(b.chunk)
		rep.Blocks++
	}
	d.allocated = d.allocated[:0]
	rep.Bytes = uint64(rep.Pages) * mem.PageSize

	d.stats.RehomedBlocks = rep.Blocks
	d.stats.RehomedPages = rep.Pages
	d.stats.RehomedBytes = rep.Bytes
	return rep
}
