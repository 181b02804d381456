package guvm

import (
	"errors"
	"testing"
	"testing/quick"

	"guvm/internal/audit"
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// fuzzWorkload builds a random but deterministic workload from fuzz bytes:
// a mix of reads, writes, prefetches and computes over a few allocations.
type fuzzWorkload struct {
	seed   uint64
	blocks int
	ops    int
}

func (f *fuzzWorkload) Name() string { return "fuzz" }

func (f *fuzzWorkload) Allocs() []workloads.Alloc {
	return []workloads.Alloc{
		{Name: "a", Bytes: 8 << 20, HostInit: true, HostThreads: 3},
		{Name: "b", Bytes: 4 << 20},
	}
}

func (f *fuzzWorkload) Phases(bases []mem.Addr) []workloads.Phase {
	totalA := mem.PageID((8 << 20) / mem.PageSize)
	totalB := mem.PageID((4 << 20) / mem.PageSize)
	seed := f.seed
	kernel := gpu.Kernel{
		NumBlocks: f.blocks,
		BlockProgram: func(blk int) []gpu.Program {
			rng := sim.NewRNG(seed + uint64(blk)*131)
			var prog gpu.Program
			for i := 0; i < f.ops; i++ {
				base, total := mem.PageOf(bases[0]), totalA
				if rng.Intn(3) == 0 {
					base, total = mem.PageOf(bases[1]), totalB
				}
				first := base + mem.PageID(rng.Uint64n(uint64(total)))
				n := rng.Intn(8) + 1
				if first+mem.PageID(n) > base+total {
					n = int(base + total - first)
				}
				switch rng.Intn(4) {
				case 0:
					prog.Read(rng.Intn(3), first, n)
				case 1:
					prog.Write(0, first, n)
				case 2:
					prog.Prefetch(first, n)
				case 3:
					prog.Compute(sim.Time(rng.Intn(2000)), gpu.Regs(rng.Intn(3)))
				}
			}
			return []gpu.Program{prog}
		},
	}
	return []workloads.Phase{{Name: "fuzz", Kernel: kernel}}
}

// fuzzConfig is the shared profile for the invariant fuzzers: a small GPU
// so a few VABlocks of data already exercise eviction, with the auditor
// checking every batch.
func fuzzConfig(oversub, prefetch bool) SystemConfig {
	cfg := DefaultConfig()
	cfg.GPU.NumSMs = 4
	cfg.Policies.Prefetch = "off"
	if prefetch {
		cfg.Policies.Prefetch = "tree"
	}
	if oversub {
		cfg.Driver.GPUMemBytes = 4 << 20 // 2 chunks vs 12 MB of data
	} else {
		cfg.Driver.GPUMemBytes = 64 << 20
	}
	cfg.Audit.Enabled = true
	return cfg
}

// runInvariantChecked executes one fuzz workload with the auditor on and
// reports any failure — simulation error, audit violation, or an audit
// that silently observed nothing.
func runInvariantChecked(cfg SystemConfig, w workloads.Workload) error {
	s, err := NewSimulator(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run(w)
	if err != nil {
		return err
	}
	if res.Audit == nil {
		return errors.New("audit enabled but no report attached")
	}
	if res.Audit.BatchesAudited != len(res.Batches) {
		return errors.New("auditor missed batch boundaries")
	}
	if len(res.Batches) > 0 && res.Audit.ChecksRun == 0 {
		return errors.New("auditor ran no checks")
	}
	return nil
}

// TestSystemInvariantsUnderRandomWorkloads drives random op mixes through
// the full stack — including oversubscription — with the runtime auditor
// checking every invariant at every batch boundary. The invariant
// catalogue itself lives in internal/audit; this test's job is to hit it
// with adversarial workloads.
func TestSystemInvariantsUnderRandomWorkloads(t *testing.T) {
	check := func(seed uint64, oversub, prefetch bool) bool {
		cfg := fuzzConfig(oversub, prefetch)
		w := &fuzzWorkload{seed: seed, blocks: 4, ops: 30}
		if err := runInvariantChecked(cfg, w); err != nil {
			t.Logf("seed %d oversub=%v prefetch=%v: %v", seed, oversub, prefetch, err)
			return false
		}
		return true
	}
	f := func(seed uint16, oversub, prefetch bool) bool {
		return check(uint64(seed), oversub, prefetch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestOversubscribedFuzzCompletes pins a few known-hard seeds at heavy
// oversubscription with prefetch on (the most entangled configuration).
func TestOversubscribedFuzzCompletes(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		cfg := fuzzConfig(true, true)
		w := &fuzzWorkload{seed: seed, blocks: 6, ops: 40}
		if err := runInvariantChecked(cfg, w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzSystemInvariants is the coverage-guided variant: the fuzzer mutates
// the workload seed, shape and configuration bits, and the auditor decides
// whether the resulting run obeyed every system invariant. Any
// ViolationError (or crash) is a finding.
func FuzzSystemInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(30), false, false)
	f.Add(uint64(7), uint8(4), uint8(30), false, true)
	f.Add(uint64(42), uint8(6), uint8(40), true, true)
	f.Add(uint64(1234), uint8(6), uint8(40), true, false)
	f.Add(uint64(99999), uint8(2), uint8(10), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, blocks, ops uint8, oversub, prefetch bool) {
		// Clamp the shape so a single input stays sub-second.
		nb := int(blocks)%8 + 1
		no := int(ops)%48 + 1
		cfg := fuzzConfig(oversub, prefetch)
		w := &fuzzWorkload{seed: seed, blocks: nb, ops: no}
		if err := runInvariantChecked(cfg, w); err != nil {
			if errors.Is(err, audit.ErrViolation) {
				t.Fatalf("invariant violated: %v", err)
			}
			t.Fatalf("run failed: %v", err)
		}
	})
}

// TestMaxBatchSizeHistogramsSumBack runs at the largest batch size the
// driver accepts with the auditor on. No histogram cell is clamped and
// the auditor no longer exempts large batches, so every batch's
// per-VABlock fault histogram must sum back to its raw fault count.
func TestMaxBatchSizeHistogramsSumBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policies.Prefetch = "off"
	cfg.Driver.BatchSize = uvm.MaxBatchSize
	cfg.Audit.Enabled = true
	res := mustRun(t, cfg, workloads.NewStream(16<<20, 256))
	if err := res.Audit.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	largest := 0
	for i := range res.Batches {
		b := &res.Batches[i]
		blk := 0
		for _, n := range b.VABlockFaults {
			blk += int(n)
		}
		if blk != int(b.RawFaults) {
			t.Fatalf("batch %d: per-VABlock sum %d, raw faults %d", i, blk, b.RawFaults)
		}
		largest = max(largest, int(b.RawFaults))
	}
	t.Logf("%d batches, largest %d faults", len(res.Batches), largest)
	if largest <= DefaultConfig().Driver.BatchSize {
		t.Fatalf("largest batch %d faults, want more than the default batch size %d", largest, DefaultConfig().Driver.BatchSize)
	}
}
