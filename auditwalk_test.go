package guvm

import (
	"slices"
	"testing"

	"guvm/internal/audit"
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// walkChecker is a batch-end observer that checks the driver's in-place
// block walk against its block lookup and its header: the walk visits
// strictly ascending IDs, each view equals LookupBlock's, and the blocks
// holding a chunk number exactly the chunks in use and the entries of the
// victim-scan list.
type walkChecker struct {
	t       *testing.T
	name    string
	drv     *uvm.Driver
	batches int
	failed  bool
}

func (c *walkChecker) EndBatch(id int, _ *trace.BatchRecord, _ []gpu.Fault) {
	c.batches++
	c.check(id)
}

// check walks the driver once; it reports only the first mismatch of a
// run.
func (c *walkChecker) check(id int) {
	if c.failed {
		return
	}
	c.t.Helper()
	var prev mem.VABlockID
	visited, withChunk := 0, 0
	c.drv.VisitBlocks(func(b *uvm.BlockAudit) bool {
		if got, ok := c.drv.LookupBlock(b.ID); !ok || got != *b {
			c.t.Errorf("%s batch %d: block %d walks as %+v, looks up as %+v (known %v)", c.name, id, b.ID, *b, got, ok)
			c.failed = true
		} else if visited > 0 && b.ID <= prev {
			c.t.Errorf("%s batch %d: walk visits block %d after block %d", c.name, id, b.ID, prev)
			c.failed = true
		}
		prev = b.ID
		visited++
		if b.HasChunk {
			withChunk++
		}
		return !c.failed
	})
	if c.failed {
		return
	}
	if h := c.drv.AuditHeader(); withChunk != h.ChunksInUse || withChunk != h.Allocated {
		c.t.Errorf("%s batch %d: %d walked blocks hold chunks, header reports %d in use and %d in the victim-scan list",
			c.name, id, withChunk, h.ChunksInUse, h.Allocated)
		c.failed = true
	}
}

// TestDriverWalkMatchesLookupAndHeader runs walkChecker at every batch
// end of the four digest-golden runs and of the two multi-GPU golden runs
// (named-policy contention and the device-death drill), and once more
// after each run. The digest values themselves are pinned by those runs'
// goldens.
func TestDriverWalkMatchesLookupAndHeader(t *testing.T) {
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
		for _, drv := range s.Drivers {
			c := &walkChecker{t: t, name: r.name, drv: drv}
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

// batchEndReplay measures, at the first batch end that evicted a block
// the batch did not service, what the auditor allocates to check that
// batch end again. It runs after the auditor, while the driver's serviced
// list is still the batch's, so every per-batch check runs, the
// eviction lookups too. The replayed record's migration bytes are
// zeroed, so the link ledger stays balanced across the repeats.
type batchEndReplay struct {
	a      *audit.Auditor
	drv    *uvm.Driver
	id     int
	allocs float64
}

func (r *batchEndReplay) EndBatch(id int, rec *trace.BatchRecord, _ []gpu.Fault) {
	unserviced := func(bid mem.VABlockID) bool { return !slices.Contains(r.drv.ServicedBlocks(), bid) }
	if r.id >= 0 || !slices.ContainsFunc(rec.EvictedBlocks, unserviced) {
		return
	}
	r.id = id
	replay := *rec
	replay.PagesMigrated, replay.BytesMigrated, replay.EvictedBytes = 0, 0, 0
	r.allocs = testing.AllocsPerRun(20, func() { r.a.EndBatch(id, &replay, nil) })
}

// TestAuditedBatchEndAllocGuard pins the auditor's per-batch path at zero
// allocations: it walks the live driver and reuses its maps, so auditing
// a batch copies no model state. The guard replays a batch end of an
// oversubscribed, audited stream run (see batchEndReplay).
func TestAuditedBatchEndAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver.GPUMemBytes = 12 << 20
	cfg.Audit.Enabled = true
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &batchEndReplay{a: s.Auditors[0], drv: s.Driver, id: -1}
	s.Driver.Observe(r)
	if _, err := s.Run(workloads.NewStream(16<<20, 24)); err != nil {
		t.Fatalf("replayed batch end tripped the auditor: %v", err)
	}
	if r.id < 0 {
		t.Fatal("no batch evicted a block it did not service")
	}
	if r.allocs != 0 {
		t.Fatalf("an audited batch end allocates %v times, want 0", r.allocs)
	}
}
