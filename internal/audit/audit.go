// Package audit is the simulator's runtime invariant auditor. It attaches
// to a wired system (driver, device, host VM, link, injector) and checks,
// at every batch boundary and at end of run, the conservation laws the
// model must obey no matter the workload or configuration:
//
//   - fault accounting: unique pages plus duplicates equals raw faults,
//     the per-VABlock histogram sums back to the raw count, and the
//     batch's serviced list covers its faulted blocks, none twice;
//   - residency vs capacity: chunks in use never exceed capacity, resident
//     pages are populated and chunk-backed, and chunk ownership is a
//     bijection between live chunks and blocks;
//   - host exclusivity: no page is GPU-resident and CPU-mapped at once;
//   - eviction consistency: an evicted block holds no chunk and no
//     resident pages (unless the same batch re-serviced it);
//   - link conservation: bytes the link carried to the GPU equal the batch
//     migration totals plus explicit copies plus injected-retry traffic,
//     and bytes to the host equal eviction writeback;
//   - injection conservation: per category, injected faults equal retried
//     plus unrecovered, with the device's drop counters agreeing.
//
// Violations surface as typed *ViolationError values through the
// engine's Fail path — the auditor never panics. The auditor only checks:
// per-batch FNV-1a digests of every model's canonical state are a
// Recorder's job, which the determinism verifier attaches to compare two
// runs and find the first divergent batch.
package audit

import (
	"errors"
	"fmt"

	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/gpumem"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
)

// Config enables the auditor.
type Config struct {
	// Enabled turns on invariant checking at every batch boundary and at
	// end of run.
	Enabled bool
}

// ErrViolation is the sentinel matched by errors.Is for any invariant
// violation. The concrete error is always a *ViolationError.
var ErrViolation = errors.New("audit: invariant violated")

// ViolationError describes one invariant violation: which check failed,
// at which batch (or -1 for an end-of-run check), and how.
type ViolationError struct {
	// Check names the violated invariant, e.g. "fault-accounting".
	Check string
	// Batch is the batch the violation was detected at, -1 at end of run.
	Batch int
	// At is the virtual time of detection.
	At sim.Time
	// Detail states the failed relation with its observed values.
	Detail string
}

func (e *ViolationError) Error() string {
	where := fmt.Sprintf("batch %d", e.Batch)
	if e.Batch < 0 {
		where = "end of run"
	}
	return fmt.Sprintf("audit: %s violated at %s (virtual time %d ns): %s",
		e.Check, where, e.At, e.Detail)
}

// Unwrap lets errors.Is(err, ErrViolation) match.
func (e *ViolationError) Unwrap() error { return ErrViolation }

// Snapshot is one per-batch digest of every model's canonical state.
type Snapshot struct {
	// Batch is the batch ID the snapshot was taken after.
	Batch int
	// At is the virtual time of the batch end.
	At sim.Time

	Driver uint64
	Device uint64
	Host   uint64
	Link   uint64
	// Combined folds the four component digests into one word.
	Combined uint64

	// Dump is the concatenated human-readable state, for diagnosing a
	// divergence field by field.
	Dump string
}

// Report is the auditor's outcome, carried on guvm.Result.
type Report struct {
	// BatchesAudited counts batch boundaries the auditor observed.
	BatchesAudited int
	// ChecksRun counts individual invariant evaluations.
	ChecksRun int
	// Violations holds every detected violation, in detection order. The
	// engine stops on the first one, so more than one entry only occurs
	// when end-of-run checks follow a clean run.
	Violations []*ViolationError
	// FinalDigest is the combined digest of the final system state.
	FinalDigest uint64
}

// Err returns the first violation, or nil.
func (r *Report) Err() error {
	if r == nil || len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// Auditor watches one driver/device pair (plus the host VM, link and
// injector they are wired to) and checks invariants at batch boundaries.
type Auditor struct {
	// shared disables the cross-layer injection equalities: with one
	// injector serving several devices, each device's counters are a
	// fraction of its totals.
	shared bool
	eng    *sim.Engine
	drv    *uvm.Driver
	dev    *gpu.Device
	vm     *hostos.VM
	link   *interconnect.Link
	inj    *faultinject.Injector

	// Running link-conservation ledgers, accumulated per observed batch.
	sumMigrated uint64
	sumEvicted  uint64

	// The per-batch check state, kept across batches so an audited
	// batch allocates nothing: owners maps each chunk seen in the current
	// walk to its block, serviced is the batch's set of serviced blocks
	// (each check that uses it clears it first), and visitBlock is
	// checkBlock bound once. withChunk and walkErr are checkBlock's
	// running count and first violation.
	owners     map[gpumem.ChunkID]mem.VABlockID
	serviced   map[mem.VABlockID]bool
	visitBlock func(*uvm.BlockAudit) bool
	withChunk  int
	walkErr    *ViolationError

	rep Report
}

// driverView is the driver state the structural checks read: the live
// driver, walked in place, or in tests a forged header and block list
// standing in for a corrupt one.
type driverView interface {
	AuditHeader() uvm.AuditHeader
	VisitBlocks(fn func(*uvm.BlockAudit) bool)
}

// New builds an auditor for an assembled system and attaches it to the
// driver, so it must be called before the run starts. It returns nil, and
// attaches nothing, unless cfg enables auditing. shared marks an injector
// serving several devices.
func New(cfg Config, shared bool, eng *sim.Engine, drv *uvm.Driver, dev *gpu.Device, vm *hostos.VM,
	inj *faultinject.Injector) *Auditor {
	if !cfg.Enabled {
		return nil
	}
	a := &Auditor{
		shared:   shared,
		eng:      eng,
		drv:      drv,
		dev:      dev,
		vm:       vm,
		link:     drv.Link(),
		inj:      inj,
		owners:   make(map[gpumem.ChunkID]mem.VABlockID),
		serviced: make(map[mem.VABlockID]bool),
	}
	a.visitBlock = a.checkBlock
	drv.Observe(a)
	return a
}

// EndBatch implements uvm.Observer: it runs at every batch end, after the
// record was collected and the arbiter released, before the next batch
// starts, so the driver's ServicedBlocks is still this batch's list.
func (a *Auditor) EndBatch(id int, rec *trace.BatchRecord, _ []gpu.Fault) {
	a.rep.BatchesAudited++
	if v := a.checkBatch(id, rec); v != nil {
		a.violate(v)
	}
}

// violate records v and stops the engine with it (first error wins).
func (a *Auditor) violate(v *ViolationError) {
	a.rep.Violations = append(a.rep.Violations, v)
	a.eng.Fail(v)
}

// Finish records the final digest, runs the end-of-run checks when the
// run itself completed cleanly, and returns the report. Violations found
// here are appended to the report; the caller surfaces them as errors.
// The returned report is a detached copy: it holds no reference into the
// auditor, so a caller that keeps it does not keep the simulator alive.
func (a *Auditor) Finish(runErr error) *Report {
	a.rep.FinalDigest = digests(a.drv, a.dev, a.vm).Combined
	if runErr == nil {
		for _, v := range a.CheckNow() {
			a.rep.Violations = append(a.rep.Violations, v)
		}
		for _, v := range a.finalChecks() {
			a.rep.Violations = append(a.rep.Violations, v)
		}
	}
	rep := a.rep
	return &rep
}

// checkBatch evaluates all per-batch invariants and returns the first
// violation found.
func (a *Auditor) checkBatch(id int, rec *trace.BatchRecord) *ViolationError {
	a.rep.ChecksRun++
	serviced := a.drv.ServicedBlocks()
	if v := a.stamp(checkBatchRecord(rec, serviced, a.drv.Config().ServiceWorkers, a.serviced), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkDriverState(a.drv), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkEvictions(rec, serviced), id); v != nil {
		return v
	}
	a.sumMigrated += rec.BytesMigrated
	a.sumEvicted += rec.EvictedBytes
	st := a.drv.Stats()
	if v := a.stamp(a.checkLinkConservation(&st), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkInjection(&st), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkPageConservation(a.drv, &st), id); v != nil {
		return v
	}
	return nil
}

// stamp fills in the detection context of a violation.
func (a *Auditor) stamp(v *ViolationError, batch int) *ViolationError {
	if v != nil {
		v.Batch = batch
		v.At = a.eng.Now()
	}
	return v
}

// CheckNow evaluates every state invariant against the current model
// state. It is valid at any batch boundary (and after the run); tests use
// it to probe deliberately corrupted systems.
func (a *Auditor) CheckNow() []*ViolationError {
	var vs []*ViolationError
	if v := a.stamp(a.checkDriverState(a.drv), -1); v != nil {
		vs = append(vs, v)
	}
	st := a.drv.Stats()
	if v := a.stamp(a.checkInjection(&st), -1); v != nil {
		vs = append(vs, v)
	}
	if v := a.stamp(a.checkPageConservation(a.drv, &st), -1); v != nil {
		vs = append(vs, v)
	}
	return vs
}

// finalChecks evaluates the invariants that only hold once the event
// queue drained cleanly: device quiescence and link conservation over the
// whole run.
func (a *Auditor) finalChecks() []*ViolationError {
	var vs []*ViolationError
	dev := a.dev
	a.rep.ChecksRun++
	if dev.Killed() && !a.drv.Dead() {
		vs = append(vs, a.stamp(&ViolationError{
			Check:  "page-conservation",
			Detail: "device killed but driver never re-homed (not marked dead)",
		}, -1))
	}
	if dev.Running() || dev.Buffer.Len() != 0 || dev.PendingFaults() != 0 || dev.LiveBlocks() != 0 {
		vs = append(vs, a.stamp(&ViolationError{
			Check: "device-quiescence",
			Detail: fmt.Sprintf("running=%v bufferLen=%d pendingFaults=%d liveBlocks=%d after clean drain",
				dev.Running(), dev.Buffer.Len(), dev.PendingFaults(), dev.LiveBlocks()),
		}, -1))
	}
	st := a.drv.Stats()
	if v := a.stamp(a.checkLinkConservation(&st), -1); v != nil {
		vs = append(vs, v)
	}
	return vs
}

// checkLinkConservation reconciles the link's byte counters against the
// driver-side ledgers: every byte to the GPU is a batch migration, an
// explicit bulk copy, injected-retry traffic, or a re-carried transfer
// a flapping link dropped; every byte to the host is eviction
// writeback, a dropped writeback attempt, or device-loss re-homing.
func (a *Auditor) checkLinkConservation(st *uvm.Stats) *ViolationError {
	a.rep.ChecksRun++
	ls := a.link.Stats()
	wantToGPU := a.sumMigrated + st.ExplicitBytes + st.InjMigRetryBytes + st.HWRetryToGPUBytes
	if ls.BytesToGPU != wantToGPU {
		return &ViolationError{
			Check: "link-conservation",
			Detail: fmt.Sprintf("BytesToGPU = %d, want %d (batches %d + explicit %d + injected retries %d + hw re-carries %d)",
				ls.BytesToGPU, wantToGPU, a.sumMigrated, st.ExplicitBytes, st.InjMigRetryBytes, st.HWRetryToGPUBytes),
		}
	}
	wantToHost := a.sumEvicted + st.HWRetryToHostBytes + st.RehomedBytes
	if ls.BytesToHost != wantToHost {
		return &ViolationError{
			Check: "link-conservation",
			Detail: fmt.Sprintf("BytesToHost = %d, want %d (eviction writeback %d + hw re-carries %d + re-homed %d)",
				ls.BytesToHost, wantToHost, a.sumEvicted, st.HWRetryToHostBytes, st.RehomedBytes),
		}
	}
	return nil
}

// checkPageConservation verifies device-loss recovery: a dead driver
// holds no chunks and no resident pages, its victim-scan list is empty,
// and the pages it re-homed to the host account exactly for everything
// resident at the instant of death — no page lost, none invented.
func (a *Auditor) checkPageConservation(dst driverView, st *uvm.Stats) *ViolationError {
	h := dst.AuditHeader()
	if !h.Dead {
		return nil
	}
	a.rep.ChecksRun++
	var v *ViolationError
	dst.VisitBlocks(func(b *uvm.BlockAudit) bool {
		if b.HasChunk || b.Resident.Any() {
			v = &ViolationError{
				Check: "page-conservation",
				Detail: fmt.Sprintf("dead driver: block %d still holds chunk=%v, %d resident pages",
					b.ID, b.HasChunk, b.Resident.Count()),
			}
		}
		return v == nil
	})
	if v != nil {
		return v
	}
	if h.ChunksInUse != 0 || h.Allocated != 0 {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("dead driver: %d chunks in use, %d blocks in victim scan",
				h.ChunksInUse, h.Allocated),
		}
	}
	if st.RehomedPages != st.ResidentAtKill {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("re-homed %d pages but %d were resident at kill",
				st.RehomedPages, st.ResidentAtKill),
		}
	}
	if st.RehomedBytes != uint64(st.RehomedPages)*mem.PageSize {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("re-homed bytes %d != %d pages * %d",
				st.RehomedBytes, st.RehomedPages, mem.PageSize),
		}
	}
	return nil
}

// checkInjection verifies the per-category injection ledgers. Every
// injected fault is either retried or unrecovered, recoveries never
// exceed retries, and (single-injector wiring only) the device and driver
// counters match the injector's.
func (a *Auditor) checkInjection(st *uvm.Stats) *ViolationError {
	a.rep.ChecksRun++
	is := a.inj.Stats()
	for c := faultinject.BufferDrop; c <= faultinject.LinkTransfer; c++ {
		n := is.Of(c)
		if n.Injected != n.Retried+n.Unrecovered {
			return &ViolationError{
				Check: "injection-conservation",
				Detail: fmt.Sprintf("%s: injected %d != retried %d + unrecovered %d",
					c, n.Injected, n.Retried, n.Unrecovered),
			}
		}
		if n.Recovered > n.Retried {
			return &ViolationError{
				Check:  "injection-conservation",
				Detail: fmt.Sprintf("%s: recovered %d > retried %d", c, n.Recovered, n.Retried),
			}
		}
	}
	ds := a.dev.Stats()
	if ds.InjectedDrops != ds.InjectedDropRetries+ds.InjectedDropsLost {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("device: injected drops %d != retries %d + lost %d",
				ds.InjectedDrops, ds.InjectedDropRetries, ds.InjectedDropsLost),
		}
	}
	if a.shared {
		return nil
	}
	if uint64(ds.InjectedDrops) != is.BufferDrop.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("device drops %d != injector buffer-drop injections %d",
				ds.InjectedDrops, is.BufferDrop.Injected),
		}
	}
	if uint64(st.MigRetries) != is.Migrate.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("driver migration retries %d != injector migrate injections %d",
				st.MigRetries, is.Migrate.Injected),
		}
	}
	if uint64(st.HostAllocFailures) != is.HostAlloc.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("driver host-alloc failures %d != injector host-alloc injections %d",
				st.HostAllocFailures, is.HostAlloc.Injected),
		}
	}
	if uint64(st.HWLinkRetries) != is.LinkTransfer.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("driver link re-carries %d != injector link-transfer injections %d",
				st.HWLinkRetries, is.LinkTransfer.Injected),
		}
	}
	return nil
}

// checkDriverState verifies residency-vs-capacity, the chunk-ownership
// bijection, and (single-host wiring only) host exclusivity.
func (a *Auditor) checkDriverState(dst driverView) *ViolationError {
	a.rep.ChecksRun++
	h := dst.AuditHeader()
	if h.ChunksInUse > h.CapacityBlocks {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("%d chunks in use > capacity %d", h.ChunksInUse, h.CapacityBlocks),
		}
	}
	clear(a.owners)
	a.withChunk, a.walkErr = 0, nil
	dst.VisitBlocks(a.visitBlock)
	if a.walkErr != nil {
		return a.walkErr
	}
	if a.withChunk != h.ChunksInUse {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("%d blocks hold chunks but the allocator reports %d in use", a.withChunk, h.ChunksInUse),
		}
	}
	if h.Allocated != a.withChunk {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("victim-scan list has %d entries for %d chunk-backed blocks", h.Allocated, a.withChunk),
		}
	}
	return nil
}

// checkBlock is checkDriverState's per-block step: it counts b in
// withChunk if it holds a chunk, and on the first violation records it in
// walkErr and stops the walk.
func (a *Auditor) checkBlock(b *uvm.BlockAudit) bool {
	a.walkErr = a.blockViolation(b)
	return a.walkErr == nil
}

func (a *Auditor) blockViolation(b *uvm.BlockAudit) *ViolationError {
	for w := range b.Resident {
		if b.Resident[w]&^b.Populated[w] != 0 {
			return &ViolationError{
				Check:  "residency-capacity",
				Detail: fmt.Sprintf("block %d has resident pages that were never populated", b.ID),
			}
		}
	}
	if b.Resident.Any() && !b.HasChunk {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("block %d has %d resident pages but no chunk", b.ID, b.Resident.Count()),
		}
	}
	if b.HasChunk {
		a.withChunk++
		if prev, dup := a.owners[b.Chunk]; dup {
			return &ViolationError{
				Check:  "chunk-bijection",
				Detail: fmt.Sprintf("chunk %d claimed by both block %d and block %d", b.Chunk, prev, b.ID),
			}
		}
		a.owners[b.Chunk] = b.ID
		owner, ok := a.drv.ChunkOwner(b.Chunk)
		if !ok || owner != b.ID {
			return &ViolationError{
				Check:  "chunk-bijection",
				Detail: fmt.Sprintf("block %d holds chunk %d, but the allocator records owner (%d, live=%v)", b.ID, b.Chunk, owner, ok),
			}
		}
	}
	mp := a.vm.MappedPages(b.ID)
	for w := range mp {
		if mp[w]&b.Resident[w] != 0 {
			return &ViolationError{
				Check:  "host-exclusivity",
				Detail: fmt.Sprintf("block %d has pages both GPU-resident and CPU-mapped", b.ID),
			}
		}
	}
	return nil
}

// checkEvictions verifies that every block this batch evicted — and did
// not re-service afterwards (serviced is the batch's serviced list) —
// ended the batch with no chunk and no resident pages. It looks up only
// the evicted blocks.
func (a *Auditor) checkEvictions(rec *trace.BatchRecord, serviced []mem.VABlockID) *ViolationError {
	a.rep.ChecksRun++
	if int(rec.Evictions) != len(rec.EvictedBlocks) {
		return &ViolationError{
			Check:  "eviction-consistency",
			Detail: fmt.Sprintf("Evictions = %d but %d evicted blocks recorded", rec.Evictions, len(rec.EvictedBlocks)),
		}
	}
	if len(rec.EvictedBlocks) == 0 {
		return nil
	}
	clear(a.serviced)
	for _, bid := range serviced {
		a.serviced[bid] = true
	}
	for _, bid := range rec.EvictedBlocks {
		if a.serviced[bid] {
			// Evicted and serviced in the same batch (last-resort victim
			// or re-fault): the final state is whatever the later of the
			// two operations left.
			continue
		}
		b, ok := a.drv.LookupBlock(bid)
		if !ok {
			return &ViolationError{
				Check:  "eviction-consistency",
				Detail: fmt.Sprintf("evicted block %d is unknown to the driver", bid),
			}
		}
		if b.HasChunk || b.Resident.Any() {
			return &ViolationError{
				Check: "eviction-consistency",
				Detail: fmt.Sprintf("evicted block %d still holds chunk=%v, %d resident pages",
					bid, b.HasChunk, b.Resident.Count()),
			}
		}
	}
	return nil
}
