package guvm

import (
	"slices"
	"testing"

	"guvm/internal/digest"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// The oracle digests below hash the snapshot-building AuditState of each
// layer, field by field, as every Digest did before the digests walked
// the live models in place. They survive here as the oracle the in-place
// digests are checked against.

func oracleDriverDigest(st uvm.AuditState, hw bool) uint64 {
	h := digest.New()
	h = h.Int(len(st.Blocks))
	for i := range st.Blocks {
		b := &st.Blocks[i]
		h = h.Uint64(uint64(b.ID))
		h = h.Words(b.Resident[:])
		h = h.Words(b.Populated[:])
		h = h.Bool(b.HasChunk)
		if b.HasChunk {
			h = h.Int(int(b.Chunk))
		}
		h = h.Bool(b.DMAMapped)
		h = h.Int(b.LastTouch).Int(b.AllocSeq).Int(b.Evictions)
		if b.RemoteMapped.Any() {
			h = h.Words(b.RemoteMapped[:])
		}
	}
	h = h.Int(len(st.AllocatedOrder))
	for _, id := range st.AllocatedOrder {
		h = h.Uint64(uint64(id))
	}
	h = h.Int(st.ChunksInUse).Int(st.CapacityBlocks)
	h = h.Int(st.EffBatch).Int(st.BatchCount).Int(st.NextSeq)
	h = h.Bool(st.Sleeping).Bool(st.InBatch)
	s := st.Stats
	h = h.Int(s.Batches).Int(s.TotalFaults).Int(s.StaleFaults).Int(s.Evictions)
	h = h.Int(s.PrefetchedPages).Int(s.CrossBlockPages).Int(s.MigratedPages)
	h = h.Int(s.WakeUps).Int(s.SpuriousWakeUps)
	h = h.Int(s.AsyncUnmapCalls).Int64(int64(s.AsyncUnmapTime))
	h = h.Int(s.MigRetries).Int(s.HostAllocFailures).Int(s.BatchShrinks)
	h = h.Uint64(s.ExplicitBytes).Uint64(s.InjMigRetryBytes)
	if s.RemoteMappedPages != 0 || s.CounterPromotions != 0 {
		h = h.Int(s.RemoteMappedPages).Int(s.CounterPromotions)
	}
	if hw {
		h = h.Bool(st.Dead)
		h = h.Int(s.HWLinkRetries).Int(s.DegradedShrinks)
		h = h.Uint64(s.HWRetryToGPUBytes).Uint64(s.HWRetryToHostBytes)
		h = h.Int(s.RehomedBlocks).Int(s.RehomedPages).Uint64(s.RehomedBytes)
		h = h.Int(s.ResidentAtKill)
	}
	return h.Sum()
}

func oracleDeviceDigest(st gpu.AuditState) uint64 {
	h := digest.New()
	h = h.Int(st.BufferLen).Bool(st.Running)
	h = h.Int(st.LiveBlocks).Int(st.NextBlock).Int(st.NextWarpID)
	for i := range st.PendingPerUTLB {
		h = h.Int(st.PendingPerUTLB[i]).Int(st.PrefetchPerUTLB[i])
		h = h.Int(st.DeferredPerUTLB[i]).Int(st.StalledPerUTLB[i])
	}
	h = h.Int(len(st.PendingPages))
	for _, p := range st.PendingPages {
		h = h.Uint64(uint64(p))
	}
	s := st.Stats
	h = h.Int(s.FaultsEmitted).Int(s.DupFaults).Int(s.Refaults)
	h = h.Int(s.ThrottleStalls).Int(s.UTLBFullStalls).Int(s.BlocksCompleted)
	h = h.Int(s.InjectedDrops).Int(s.InjectedDropRetries).Int(s.InjectedDropsLost)
	if s.RemoteAccesses != 0 || s.CounterNotices != 0 {
		h = h.Int(s.RemoteAccesses).Int(s.CounterNotices)
	}
	if st.Killed {
		h = h.Bool(true)
	}
	return h.Sum()
}

func oracleHostDigest(st hostos.AuditState) uint64 {
	h := digest.New()
	h = h.Int(len(st.Mappings))
	for i := range st.Mappings {
		m := &st.Mappings[i]
		h = h.Uint64(uint64(m.Block))
		h = h.Words(m.Pages[:])
		h = h.Uint64(m.Threads)
	}
	h = h.Int(st.RadixNodes)
	h = h.Uint64(st.DMANext)
	s := st.Stats
	h = h.Int(s.UnmapCalls).Int(s.PagesUnmapped).Int(s.PagesPopulated)
	h = h.Int(s.DMAPagesMapped).Int(s.RadixNodes).Int(s.PopulateFailures)
	h = h.Int64(int64(s.UnmapTime)).Int64(int64(s.PopulateTime)).Int64(int64(s.DMAMapTime))
	return h.Sum()
}

// walkChecker is a batch-end observer that compares every in-place
// digest and driver walk of one device with its snapshot oracle.
type walkChecker struct {
	t       *testing.T
	name    string
	drv     *uvm.Driver
	dev     *gpu.Device
	vm      *hostos.VM
	hw      bool
	batches int
	failed  bool
}

func (c *walkChecker) EndBatch(id int, _ *trace.BatchRecord, _ []gpu.Fault) {
	c.batches++
	c.check(id)
}

// check compares the live digests and walk with the oracles; it reports
// only the first mismatch of a run.
func (c *walkChecker) check(id int) {
	if c.failed {
		return
	}
	c.t.Helper()
	drv := c.drv.AuditState()
	var walked []uvm.BlockAudit
	c.drv.VisitBlocks(func(b *uvm.BlockAudit) bool {
		walked = append(walked, *b)
		return true
	})
	switch {
	case c.drv.Digest() != oracleDriverDigest(drv, c.hw):
		c.t.Errorf("%s batch %d: driver digest %016x, oracle %016x", c.name, id, c.drv.Digest(), oracleDriverDigest(drv, c.hw))
	case c.dev.Digest() != oracleDeviceDigest(c.dev.AuditState()):
		c.t.Errorf("%s batch %d: device digest differs from its oracle", c.name, id)
	case c.vm.Digest() != oracleHostDigest(c.vm.AuditState()):
		c.t.Errorf("%s batch %d: host digest differs from its oracle", c.name, id)
	case c.drv.AuditHeader() != drv.AuditHeader():
		c.t.Errorf("%s batch %d: header %+v, oracle %+v", c.name, id, c.drv.AuditHeader(), drv.AuditHeader())
	case len(walked) != len(drv.Blocks):
		c.t.Errorf("%s batch %d: walk visits %d blocks, oracle %d", c.name, id, len(walked), len(drv.Blocks))
	default:
		for i := range walked {
			got, ok := c.drv.LookupBlock(walked[i].ID)
			if walked[i] != drv.Blocks[i] || !ok || got != drv.Blocks[i] {
				c.t.Errorf("%s batch %d: block %d walks as %+v, oracle %+v", c.name, id, i, walked[i], drv.Blocks[i])
				break
			}
		}
		return
	}
	c.failed = true
}

// TestInPlaceDigestsMatchSnapshots checks the in-place digests, the
// driver's block walk, header and block lookup against the AuditState
// oracles at every batch end of the four digest-golden runs and of the
// two multi-GPU golden runs (named-policy contention and the device-death
// drill), and once more after each run.
func TestInPlaceDigestsMatchSnapshots(t *testing.T) {
	type run struct {
		name    string
		cfg     SystemConfig
		devices int
		ws      func() []workloads.Workload
	}
	var runs []run
	for _, tc := range goldenDigestCases() {
		mk := tc.mk
		runs = append(runs, run{tc.name, tc.cfg, 1, func() []workloads.Workload { return []workloads.Workload{mk()} }})
	}
	multi := DefaultConfig()
	multi.GPU.NumSMs = 8
	multi.Driver.GPUMemBytes = 64 << 20
	streams := func() []workloads.Workload {
		return []workloads.Workload{workloads.NewStream(8<<20, 16), workloads.NewStream(8<<20, 16)}
	}
	contention := multi
	contention.Driver.GPUMemBytes = 6 << 20
	contention.Policies = uvm.PolicySelection{Eviction: "fifo", Prefetch: "cross-block", BatchSizing: "adaptive"}
	contention.Audit.Enabled = true
	drill := multi
	drill.Audit.Enabled = true
	drill.Inject.EpochLength /= 4
	drill.Inject.KillDevice = 1
	drill.Inject.KillBatch = 3
	runs = append(runs, run{"multigpu-contention", contention, 2, streams}, run{"multigpu-drill", drill, 2, streams})

	for _, r := range runs {
		s, err := NewMultiSimulator(r.cfg, r.devices)
		if err != nil {
			t.Fatal(err)
		}
		var checkers []*walkChecker
		for i, drv := range s.Drivers {
			c := &walkChecker{t: t, name: r.name, drv: drv, dev: s.Devices[i], vm: s.HostVM, hw: s.Injector.Hardware()}
			drv.Observe(c)
			checkers = append(checkers, c)
		}
		if _, err := s.RunConcurrent(r.ws()); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, c := range checkers {
			if c.batches == 0 {
				t.Fatalf("%s: no batches checked", r.name)
			}
			c.check(-1)
		}
	}
}

// TestAuditedBatchEndAllocGuard pins the auditor's per-batch path at zero
// allocations: it walks the live driver and reuses its maps, so auditing
// a batch copies no model state. The guard replays a batch of an
// oversubscribed, audited stream run: the latest one with evictions whose
// evicted blocks are still empty, so the eviction check runs too. Its
// migration bytes are zeroed, so the link ledger stays balanced across
// the repeats.
func TestAuditedBatchEndAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver.GPUMemBytes = 12 << 20
	cfg.Audit.Enabled = true
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workloads.NewStream(16<<20, 24))
	if err != nil {
		t.Fatal(err)
	}
	stillEmpty := func(rec *trace.BatchRecord) bool {
		for _, bid := range rec.EvictedBlocks {
			b, ok := s.Driver.LookupBlock(bid)
			if !ok || b.HasChunk || b.Resident.Any() || slices.Contains(rec.ServicedBlocks, bid) {
				return false
			}
		}
		return len(rec.EvictedBlocks) > 0
	}
	id := len(res.Batches) - 1
	for id >= 0 && !stillEmpty(&res.Batches[id]) {
		id--
	}
	if id < 0 {
		t.Fatal("no batch evicted a block that is still empty")
	}
	rec := res.Batches[id]
	rec.PagesMigrated, rec.BytesMigrated, rec.EvictedBytes = 0, 0, 0
	a := s.Auditors[0]
	if n := testing.AllocsPerRun(20, func() { a.EndBatch(id, &rec, nil) }); n != 0 {
		t.Fatalf("an audited batch end allocates %v times, want 0", n)
	}
	if err := a.Finish(nil).Err(); err != nil {
		t.Fatalf("replayed batch tripped the auditor: %v", err)
	}
}
