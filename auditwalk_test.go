package guvm

import (
	"slices"
	"testing"

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
