package audit

import (
	"errors"
	"strings"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
)

// validRecord builds a batch record that passes every self-consistency
// check with the serviced list validServiced; tests corrupt one field at
// a time.
func validRecord() trace.BatchRecord {
	return trace.BatchRecord{
		ID:    3,
		Start: 1000,
		End:   11000,

		RawFaults:   10,
		Type1Dups:   2,
		Type2Dups:   1,
		UniquePages: 7,
		StalePages:  1,
		VABlocks:    2,

		PagesMigrated: 6,
		BytesMigrated: 6 * mem.PageSize,

		TFetch:    2000,
		TPopulate: 3000,
		TTransfer: 1000,

		VABlockFaults: []uint16{7, 3},
	}
}

// validServiced is the serviced list of validRecord's batch: its two
// faulted blocks.
func validServiced() []mem.VABlockID { return []mem.VABlockID{4, 9} }

// checkRecord runs the batch-record checks the way the auditor does, with
// workers servicing the batch and validServiced as its serviced list.
func checkRecord(rec *trace.BatchRecord, workers int) *ViolationError {
	return checkServiced(rec, validServiced(), workers)
}

// checkServiced is checkRecord with the serviced list given.
func checkServiced(rec *trace.BatchRecord, serviced []mem.VABlockID, workers int) *ViolationError {
	return checkBatchRecord(rec, serviced, workers, make(map[mem.VABlockID]bool))
}

func TestCheckBatchRecordValid(t *testing.T) {
	rec := validRecord()
	if v := checkRecord(&rec, 1); v != nil {
		t.Fatalf("valid record rejected: %v", v)
	}
}

func TestCheckBatchRecordCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *trace.BatchRecord, serviced *[]mem.VABlockID)
		check   string
	}{
		{"dedup sum broken", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.UniquePages++ }, "fault-accounting"},
		{"stale exceeds unique", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.StalePages = r.UniquePages + 1 }, "fault-accounting"},
		{"per-VABlock histogram loses a fault", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.VABlockFaults[1]-- }, "fault-accounting"},
		{"per-VABlock histogram gains a fault", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.VABlockFaults[0]++ }, "fault-accounting"},
		{"more fault blocks than histogram", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.VABlocks = 3 }, "fault-accounting"},
		{"serviced list too short", func(_ *trace.BatchRecord, s *[]mem.VABlockID) { *s = (*s)[:1] }, "fault-accounting"},
		{"block serviced twice", func(_ *trace.BatchRecord, s *[]mem.VABlockID) { (*s)[1] = (*s)[0] }, "fault-accounting"},
		{"bytes disagree with pages", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.BytesMigrated++ }, "fault-accounting"},
		{"batch ends before start", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.End = r.Start - 1 }, "batch-times"},
		{"negative component", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.TUnmap = -1 }, "batch-times"},
		{"components exceed duration", func(r *trace.BatchRecord, _ *[]mem.VABlockID) { r.TReplay = r.Duration() }, "batch-times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, serviced := validRecord(), validServiced()
			tc.corrupt(&rec, &serviced)
			v := checkServiced(&rec, serviced, 1)
			if v == nil {
				t.Fatal("corruption not detected")
			}
			if v.Check != tc.check {
				t.Fatalf("reported check %q, want %q (%v)", v.Check, tc.check, v)
			}
			if !errors.Is(v, ErrViolation) {
				t.Fatal("violation does not match ErrViolation")
			}
		})
	}
}

// TestCheckBatchRecordParallelWorkers: with ServiceWorkers > 1 the time
// components record aggregate work across workers, so the sum bound is
// workers x duration — a record that is over-budget serially must pass
// at the matching concurrency, and still fail past it.
func TestCheckBatchRecordParallelWorkers(t *testing.T) {
	rec := validRecord()
	rec.TPopulate = 3 * rec.Duration() / 2 // sum > 1x duration, < 2x
	if v := checkRecord(&rec, 1); v == nil || v.Check != "batch-times" {
		t.Fatalf("over-budget serial record not flagged: %v", v)
	}
	if v := checkRecord(&rec, 2); v != nil {
		t.Fatalf("2-worker batch wrongly flagged: %v", v)
	}
	rec.TPopulate = 3 * rec.Duration()
	if v := checkRecord(&rec, 2); v == nil || v.Check != "batch-times" {
		t.Fatalf("record past 2x duration not flagged: %v", v)
	}
}

// TestCheckBatchRecordSaturatedHistograms: a batch of the largest size
// the driver accepts fills a uint16 cell exactly and sums back, split
// over blocks or not, and a batch whose histogram gains faults is flagged
// at that size too (there is no clamp exemption).
func TestCheckBatchRecordSaturatedHistograms(t *testing.T) {
	rec := validRecord()
	rec.RawFaults = 65535
	rec.UniquePages = 65535
	rec.Type1Dups, rec.Type2Dups = 0, 0
	rec.StalePages = 0
	rec.VABlocks = 1
	rec.VABlockFaults = []uint16{65535}
	if v := checkRecord(&rec, 1); v != nil {
		t.Fatalf("full histogram cell that sums back flagged: %v", v)
	}
	rec.VABlockFaults = []uint16{65000, 535}
	if v := checkRecord(&rec, 1); v != nil {
		t.Fatalf("full histogram that sums back flagged: %v", v)
	}
	rec.VABlockFaults = []uint16{65535, 100}
	if v := checkRecord(&rec, 1); v == nil || v.Check != "fault-accounting" {
		t.Fatalf("per-VABlock histogram off by 100 not flagged: %v", v)
	}
}

func TestViolationErrorMessages(t *testing.T) {
	v := &ViolationError{Check: "link-conservation", Batch: 12, At: 99, Detail: "off by one"}
	if !strings.Contains(v.Error(), "batch 12") || !strings.Contains(v.Error(), "link-conservation") {
		t.Fatalf("bad message: %s", v.Error())
	}
	v.Batch = -1
	if !strings.Contains(v.Error(), "end of run") {
		t.Fatalf("end-of-run violation not labeled: %s", v.Error())
	}
}

func TestReportErr(t *testing.T) {
	var nilRep *Report
	if nilRep.Err() != nil {
		t.Fatal("nil report must have nil error")
	}
	rep := &Report{}
	if rep.Err() != nil {
		t.Fatal("clean report must have nil error")
	}
	first := &ViolationError{Check: "a"}
	rep.Violations = append(rep.Violations, first, &ViolationError{Check: "b"})
	if rep.Err() != first {
		t.Fatal("Err must return the first violation")
	}
}

func TestCompareSnapshots(t *testing.T) {
	mk := func(batch int, combined uint64) Snapshot {
		return Snapshot{Batch: batch, Combined: combined}
	}
	t.Run("identical", func(t *testing.T) {
		a := []Snapshot{mk(0, 10), mk(1, 20)}
		rep := CompareSnapshots(a, []Snapshot{mk(0, 10), mk(1, 20)})
		if !rep.Match || rep.Compared != 2 || rep.FirstDivergentBatch != -1 {
			t.Fatalf("identical streams: %+v", rep)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if rep := CompareSnapshots(nil, nil); !rep.Match {
			t.Fatalf("empty streams must match: %+v", rep)
		}
	})
	t.Run("digest differs", func(t *testing.T) {
		a := []Snapshot{mk(0, 10), mk(1, 20), mk(2, 30)}
		b := []Snapshot{mk(0, 10), mk(1, 99), mk(2, 30)}
		rep := CompareSnapshots(a, b)
		if rep.Match || rep.FirstDivergentBatch != 1 {
			t.Fatalf("divergence at batch 1 missed: %+v", rep)
		}
		if rep.A.Combined != 20 || rep.B.Combined != 99 {
			t.Fatalf("divergent pair not captured: %+v", rep)
		}
	})
	t.Run("length differs", func(t *testing.T) {
		a := []Snapshot{mk(0, 10)}
		b := []Snapshot{mk(0, 10), mk(1, 20)}
		rep := CompareSnapshots(a, b)
		if rep.Match || rep.FirstDivergentBatch != 1 {
			t.Fatalf("unpaired snapshot missed: %+v", rep)
		}
	})
}

// testSystem wires a minimal real system (no workload run needed) so the
// state checks can be probed directly.
func testSystem(t *testing.T) *Auditor {
	t.Helper()
	eng := sim.NewEngine()
	vm := hostos.NewVM(hostos.DefaultCostModel())
	link := interconnect.NewLink(interconnect.DefaultPCIe3x16())
	drv, err := uvm.NewDriver(uvm.DefaultConfig(), uvm.PolicySelection{}, eng, vm, link)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.DefaultTitanV(), eng, drv)
	if err != nil {
		t.Fatal(err)
	}
	drv.Attach(dev)
	inj, err := faultinject.New(faultinject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Enabled: true}, false, eng, drv, dev, vm, inj)
}

// TestCheckNowCleanSystem: a freshly wired, never-run system satisfies
// every state invariant.
func TestCheckNowCleanSystem(t *testing.T) {
	a := testSystem(t)
	if vs := a.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean system violates invariants: %v", vs[0])
	}
}

// forgedDriver is a driverView over a forged header and block list: the
// state a buggy driver would expose.
type forgedDriver struct {
	header uvm.AuditHeader
	blocks []uvm.BlockAudit
}

func (f *forgedDriver) AuditHeader() uvm.AuditHeader { return f.header }

func (f *forgedDriver) VisitBlocks(fn func(*uvm.BlockAudit) bool) {
	for i := range f.blocks {
		if !fn(&f.blocks[i]) {
			return
		}
	}
}

// TestCheckDriverStateCorruptions forges driver states that break each
// structural invariant and verifies the right check trips. The forged
// states never come from a real driver — they are the states a buggy
// driver would expose.
func TestCheckDriverStateCorruptions(t *testing.T) {
	blockWithChunk := func(id mem.VABlockID) uvm.BlockAudit {
		b := uvm.BlockAudit{ID: id, HasChunk: true, Chunk: 0}
		b.Resident.Set(0)
		b.Populated.Set(0)
		return b
	}
	cases := []struct {
		name  string
		state forgedDriver
		check string
	}{
		{
			"capacity exceeded",
			forgedDriver{header: uvm.AuditHeader{ChunksInUse: 5, CapacityBlocks: 4}},
			"residency-capacity",
		},
		{
			"resident but never populated",
			func() forgedDriver {
				b := uvm.BlockAudit{ID: 1, HasChunk: true}
				b.Resident.Set(3) // populated stays empty
				return forgedDriver{header: uvm.AuditHeader{ChunksInUse: 1, CapacityBlocks: 4}, blocks: []uvm.BlockAudit{b}}
			}(),
			"residency-capacity",
		},
		{
			"resident without a chunk",
			func() forgedDriver {
				b := uvm.BlockAudit{ID: 1}
				b.Resident.Set(3)
				b.Populated.Set(3)
				return forgedDriver{header: uvm.AuditHeader{CapacityBlocks: 4}, blocks: []uvm.BlockAudit{b}}
			}(),
			"residency-capacity",
		},
		{
			"one chunk claimed twice",
			forgedDriver{
				header: uvm.AuditHeader{ChunksInUse: 2, CapacityBlocks: 4, Allocated: 2},
				blocks: []uvm.BlockAudit{blockWithChunk(1), blockWithChunk(2)},
			},
			"chunk-bijection",
		},
		{
			"chunk unknown to the allocator",
			forgedDriver{
				header: uvm.AuditHeader{ChunksInUse: 1, CapacityBlocks: 4, Allocated: 1},
				blocks: []uvm.BlockAudit{blockWithChunk(1)},
			},
			"chunk-bijection",
		},
		{
			"chunk count disagrees with allocator",
			forgedDriver{header: uvm.AuditHeader{ChunksInUse: 1, CapacityBlocks: 4}},
			"residency-capacity",
		},
		{
			"victim list out of sync",
			forgedDriver{header: uvm.AuditHeader{CapacityBlocks: 4, Allocated: 1}},
			"residency-capacity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testSystem(t)
			st := tc.state
			v := a.checkDriverState(&st)
			if v == nil {
				t.Fatal("corrupt state not detected")
			}
			if v.Check != tc.check {
				t.Fatalf("reported check %q, want %q (%v)", v.Check, tc.check, v)
			}
		})
	}
}

// TestCheckLinkConservation: the auditor's migration ledger must reconcile
// with the link's counters; a phantom migration (ledger ahead of the link)
// trips the check.
func TestCheckLinkConservation(t *testing.T) {
	a := testSystem(t)
	var st uvm.Stats
	if v := a.checkLinkConservation(&st); v != nil {
		t.Fatalf("idle link flagged: %v", v)
	}
	a.sumMigrated = mem.PageSize
	v := a.checkLinkConservation(&st)
	if v == nil {
		t.Fatal("phantom migration not detected")
	}
	if v.Check != "link-conservation" {
		t.Fatalf("reported check %q, want link-conservation", v.Check)
	}
}

// TestCheckInjectionCleanSystem: the injection ledgers of an idle injector
// reconcile trivially.
func TestCheckInjectionCleanSystem(t *testing.T) {
	a := testSystem(t)
	var st uvm.Stats
	if v := a.checkInjection(&st); v != nil {
		t.Fatalf("idle injector flagged: %v", v)
	}
	// A driver counter with no injector-side injections breaks the
	// cross-layer equality, for a software category and for the link.
	for _, corrupt := range []func(*uvm.Stats){
		func(st *uvm.Stats) { st.MigRetries = 3 },
		func(st *uvm.Stats) { st.HWLinkRetries = 2 },
	} {
		st := uvm.Stats{}
		corrupt(&st)
		v := a.checkInjection(&st)
		if v == nil {
			t.Fatalf("driver/injector mismatch not detected: %+v", st)
		}
		if v.Check != "injection-conservation" {
			t.Fatalf("reported check %q, want injection-conservation", v.Check)
		}
	}
	// A link-transfer retry with no injected drop breaks the
	// category's own ledger in the same check.
	a.inj.NoteRetried(faultinject.LinkTransfer)
	v := a.checkInjection(&st)
	if v == nil || v.Check != "injection-conservation" || !strings.Contains(v.Detail, "link-transfer") {
		t.Fatalf("link-transfer ledger imbalance reported as %v", v)
	}
}

// TestSharedOptionsSkipCrossLayerChecks: multi-GPU wiring must not fail
// the per-device reconciliations that a shared injector invalidates.
func TestSharedOptionsSkipCrossLayerChecks(t *testing.T) {
	a := testSystem(t)
	a.shared = true
	var st uvm.Stats
	st.MigRetries = 3 // would trip the single-injector equality
	if v := a.checkInjection(&st); v != nil {
		t.Fatalf("shared wiring did not skip cross-layer check: %v", v)
	}
}
