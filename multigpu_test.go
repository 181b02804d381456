package guvm

import (
	"errors"
	"reflect"
	"testing"

	"guvm/internal/audit"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

func mustMulti(t *testing.T, cfg SystemConfig, n int) *Simulator {
	t.Helper()
	m, err := NewMultiSimulator(cfg, n)
	if err != nil {
		t.Fatalf("NewMultiSimulator: %v", err)
	}
	return m
}

func TestMultiSimulatorSingleDeviceMatchesSolo(t *testing.T) {
	cfg := testConfig()
	cfg.Audit.Enabled = true
	mk := func() workloads.Workload { return workloads.NewStream(8<<20, 16) }

	solo := mustRun(t, cfg, mk())
	multi, err := mustMulti(t, cfg, 1).RunConcurrent([]workloads.Workload{mk()})
	if err != nil {
		t.Fatal(err)
	}
	// One device behind an uncontended arbiter behaves like the solo
	// simulator, batch for batch and down to the final state digest.
	if multi[0].KernelTime != solo.KernelTime {
		t.Fatalf("1-device multi kernel %v != solo %v", multi[0].KernelTime, solo.KernelTime)
	}
	if len(multi[0].Batches) != len(solo.Batches) {
		t.Fatalf("batch count %d != %d", len(multi[0].Batches), len(solo.Batches))
	}
	for i := range solo.Batches {
		if !reflect.DeepEqual(multi[0].Batches[i], solo.Batches[i]) {
			t.Fatalf("batch %d differs:\nmulti: %+v\nsolo:  %+v", i, multi[0].Batches[i], solo.Batches[i])
		}
	}
	if multi[0].Audit.FinalDigest != solo.Audit.FinalDigest {
		t.Fatalf("final digest %016x != solo %016x", multi[0].Audit.FinalDigest, solo.Audit.FinalDigest)
	}
}

func TestMultiSimulatorInterference(t *testing.T) {
	cfg := testConfig()
	mk := func() workloads.Workload {
		s := workloads.NewStream(8<<20, 16)
		s.ComputePerChunk = 0 // fault-bound: maximal driver pressure
		return s
	}
	solo := mustRun(t, cfg, mk())

	m := mustMulti(t, cfg, 2)
	results, err := m.RunConcurrent([]workloads.Workload{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	// The shared host driver serializes servicing: each device's kernel
	// slows down versus running alone.
	for i, r := range results {
		if r.KernelTime <= solo.KernelTime {
			t.Fatalf("device %d kernel %v not slower than solo %v under contention",
				i, r.KernelTime, solo.KernelTime)
		}
	}
	if m.Arbiter.Stats().Queued == 0 {
		t.Fatal("no arbiter contention recorded")
	}
	if m.Arbiter.Stats().TotalWait <= 0 {
		t.Fatal("no queueing delay recorded")
	}
}

func TestMultiSimulatorIndependentResidency(t *testing.T) {
	cfg := testConfig()
	m := mustMulti(t, cfg, 2)
	ws := []workloads.Workload{
		workloads.NewStream(4<<20, 8),
		workloads.NewRegular(8<<20, 16),
	}
	results, err := m.RunConcurrent(ws)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Workload != "stream" || results[1].Workload != "regular" {
		t.Fatalf("workload attribution wrong: %s/%s", results[0].Workload, results[1].Workload)
	}
	// Each device migrated its own working set.
	if results[0].LinkStats.BytesToGPU != 3*(4<<20) {
		t.Fatalf("device 0 migrated %d", results[0].LinkStats.BytesToGPU)
	}
	if results[1].LinkStats.BytesToGPU != 8<<20 {
		t.Fatalf("device 1 migrated %d", results[1].LinkStats.BytesToGPU)
	}
}

func TestMultiSimulatorValidation(t *testing.T) {
	cfg := testConfig()
	m := mustMulti(t, cfg, 2)
	if _, err := m.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err == nil {
		t.Fatal("mismatched workload count accepted")
	}
	m2 := mustMulti(t, cfg, 1)
	if _, err := m2.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err == nil {
		t.Fatal("second RunConcurrent accepted")
	}
	if _, err := NewMultiSimulator(cfg, 0); err == nil {
		t.Fatal("0 devices accepted")
	}
	obsCfg := cfg
	obsCfg.Obs.Trace = true
	if _, err := NewMultiSimulator(obsCfg, 2); err == nil {
		t.Fatal("observability on a 2-device system accepted")
	}
}

// TestRejectedRunLeavesSimulatorUnused requires every run-input check to
// fire before the simulator allocates or marks itself used: after a
// rejected call, a correct call on the same simulator succeeds.
func TestRejectedRunLeavesSimulatorUnused(t *testing.T) {
	cfg := testConfig()
	m := mustMulti(t, cfg, 2)
	if _, err := m.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err == nil {
		t.Fatal("mismatched workload count accepted")
	}
	w := workloads.NewStream(4<<20, 8)
	rs, err := m.RunConcurrent([]workloads.Workload{w, workloads.NewStream(4<<20, 8)})
	if err != nil {
		t.Fatalf("correct call after a rejected one: %v", err)
	}
	// Device 1 reserves right after device 0's last allocation in the one
	// host address space.
	allocs := w.Allocs()
	last := len(allocs) - 1
	next := rs[0].Bases[last] + mem.Addr(mem.AlignUp(allocs[last].Bytes, mem.VABlockSize))
	if rs[0].Bases[0] != mem.VABlockSize || rs[1].Bases[0] != next {
		t.Fatalf("rejected call left allocations behind: bases %v, %v, want %v, %v",
			rs[0].Bases[0], rs[1].Bases[0], mem.Addr(mem.VABlockSize), next)
	}

	cfg.Driver.GPUMemBytes = 8 << 20
	s := mustSim(t, cfg)
	if _, err := s.RunExplicit(workloads.NewStream(8<<20, 16)); err == nil {
		t.Fatal("explicit oversubscription accepted")
	}
	if _, err := s.Run(workloads.NewStream(2<<20, 4)); err != nil {
		t.Fatalf("demand run after a rejected explicit run: %v", err)
	}
}

// TestMultiGPUDevicesShareOneAddressSpace requires the devices of one
// system to reserve disjoint VABlocks from the one host VM, so no
// device's unmap_mapping_range tears down another device's CPU mappings:
// each device of a 2-device run pays the solo run's unmap time and
// calls.
func TestMultiGPUDevicesShareOneAddressSpace(t *testing.T) {
	cfg := testConfig()
	mk := func() workloads.Workload { return workloads.NewStream(8<<20, 16) }
	unmapTime := func(r *Result) (sum sim.Time) {
		for _, b := range r.Batches {
			sum += b.TUnmap
		}
		return sum
	}
	s := mustSim(t, cfg)
	solo, err := s.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	soloCalls := s.HostVM.Stats().UnmapCalls
	if unmapTime(solo) == 0 || soloCalls == 0 {
		t.Fatal("solo stream run unmapped nothing; the test needs host-initialised data")
	}

	m := mustMulti(t, cfg, 2)
	rs, err := m.RunConcurrent([]workloads.Workload{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[mem.VABlockID]int{}
	for i, r := range rs {
		for j, a := range mk().Allocs() {
			first := mem.VABlockOf(r.Bases[j])
			last := mem.VABlockOf(r.Bases[j] + mem.Addr(a.Bytes) - 1)
			for b := first; b <= last; b++ {
				if d, dup := owner[b]; dup {
					t.Fatalf("block %d allocated by devices %d and %d", b, d, i)
				}
				owner[b] = i
			}
		}
		if got, want := unmapTime(r), unmapTime(solo); got != want {
			t.Errorf("device %d unmap time %v, solo %v", i, got, want)
		}
	}
	if got := m.HostVM.Stats().UnmapCalls; got != 2*soloCalls {
		t.Fatalf("host unmap calls %d, want %d (solo %d per device)", got, 2*soloCalls, soloCalls)
	}
}

// TestMultiSimulatorNamedPolicies drives the shared-arbiter path through a
// named policy combination (fifo eviction + cross-block prefetch +
// adaptive batch sizing) on two contending devices, and requires two runs
// to produce bit-identical per-device digest streams: the staged pipeline
// stays deterministic when the Arbiter serializes it and every §6
// extension is selected by registry name.
func TestMultiSimulatorNamedPolicies(t *testing.T) {
	cfg := testConfig()
	cfg.Driver.GPUMemBytes = 6 << 20 // 8 MB stream: eviction active per device
	cfg.Policies = uvm.PolicySelection{
		Eviction:    "fifo",
		Prefetch:    "cross-block",
		BatchSizing: "adaptive",
	}
	cfg.Audit.Enabled = true

	type run struct {
		res  []*Result
		recs []*audit.Recorder
	}
	runOnce := func() run {
		m := mustMulti(t, cfg, 2)
		var recs []*audit.Recorder
		for i, d := range m.Drivers {
			recs = append(recs, audit.Record(d, m.Devices[i], m.HostVM))
		}
		rs, err := m.RunConcurrent([]workloads.Workload{
			workloads.NewStream(8<<20, 16),
			workloads.NewStream(8<<20, 16),
		})
		if err != nil {
			t.Fatal(err)
		}
		return run{rs, recs}
	}
	a, b := runOnce(), runOnce()
	for i := range a.res {
		if a.res[i].DriverStats.Evictions == 0 {
			t.Fatalf("device %d: no evictions — the fifo policy never ran", i)
		}
		// The selection must reach every driver: "cross-block" migrates
		// whole blocks ahead on each device.
		if a.res[i].DriverStats.CrossBlockPages == 0 {
			t.Fatalf("device %d: no cross-block pages — the prefetch policy never ran", i)
		}
		as, bs := a.recs[i].Snapshots, b.recs[i].Snapshots
		if len(as) == 0 || len(as) != len(bs) {
			t.Fatalf("device %d: snapshot streams %d vs %d", i, len(as), len(bs))
		}
		for j := range as {
			if as[j].Combined != bs[j].Combined {
				t.Fatalf("device %d: digest diverged at batch %d: %016x vs %016x",
					i, as[j].Batch, as[j].Combined, bs[j].Combined)
			}
		}
		if a.res[i].Audit.FinalDigest != b.res[i].Audit.FinalDigest {
			t.Fatalf("device %d: final digests differ", i)
		}
	}
}

// TestMultiSimulatorRejectsUnknownPolicy mirrors the single-GPU
// constructor: an unregistered policy name fails fast with the typed
// registry error before any device is built.
func TestMultiSimulatorRejectsUnknownPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.Policies.Eviction = "clock"
	if _, err := NewMultiSimulator(cfg, 2); !errors.Is(err, uvm.ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
}

func TestMultiSimulatorDeterministic(t *testing.T) {
	cfg := testConfig()
	runOnce := func() []*Result {
		m := mustMulti(t, cfg, 2)
		rs, err := m.RunConcurrent([]workloads.Workload{
			workloads.NewStream(4<<20, 8),
			workloads.NewStream(4<<20, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i].KernelTime != b[i].KernelTime || len(a[i].Batches) != len(b[i].Batches) {
			t.Fatalf("device %d nondeterministic", i)
		}
	}
}
