package audit

import (
	"guvm/internal/digest"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/trace"
	"guvm/internal/uvm"
)

// Recorder snapshots every model's state digest, with a full state dump,
// at each batch end of one device. It only records; the determinism
// verifier attaches one to each of its two runs and compares them with
// CompareSnapshots. Hashing and dumping every model per batch costs time
// linear in the system's size, so nothing else records.
type Recorder struct {
	drv *uvm.Driver
	dev *gpu.Device
	vm  *hostos.VM

	// Snapshots holds one snapshot per batch, in batch order.
	Snapshots []Snapshot
}

// Record builds a recorder for one device of an assembled system and
// attaches it to the driver, so it must be called before the run starts.
func Record(drv *uvm.Driver, dev *gpu.Device, vm *hostos.VM) *Recorder {
	r := &Recorder{drv: drv, dev: dev, vm: vm}
	drv.Observe(r)
	return r
}

// EndBatch implements uvm.Observer: it appends the batch's snapshot.
func (r *Recorder) EndBatch(id int, rec *trace.BatchRecord, _ []gpu.Fault) {
	s := digests(r.drv, r.dev, r.vm)
	s.Batch, s.At = id, rec.End
	s.Dump = r.drv.Dump() + r.dev.Dump() + r.vm.Dump() + r.drv.Link().Stats().Dump()
	r.Snapshots = append(r.Snapshots, s)
}

// digests hashes every model's canonical state into a snapshot's four
// component digests and their combination; Batch, At and Dump are unset.
// The recorder snapshots with it at every batch end, and the auditor
// takes its final digest with it.
func digests(drv *uvm.Driver, dev *gpu.Device, vm *hostos.VM) Snapshot {
	s := Snapshot{
		Driver: drv.Digest(),
		Device: dev.Digest(),
		Host:   vm.Digest(),
		Link:   drv.Link().Digest(),
	}
	s.Combined = digest.Combine(s.Driver, s.Device, s.Host, s.Link)
	return s
}
