package guvm

import (
	"runtime"
	"testing"
	"weak"

	"guvm/internal/sim"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// simRefs are weak references to a simulator's engine and drivers: they
// read nil once nothing else keeps those models alive.
type simRefs struct {
	engine  weak.Pointer[sim.Engine]
	drivers []weak.Pointer[uvm.Driver]
}

func weakRefs(s *Simulator) simRefs {
	r := simRefs{engine: weak.Make(s.Engine)}
	for _, d := range s.Drivers {
		r.drivers = append(r.drivers, weak.Make(d))
	}
	return r
}

// requireCollected drops what the garbage collector can and fails if the
// engine or any driver survived.
func (r simRefs) requireCollected(t *testing.T) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	if r.engine.Value() != nil {
		t.Error("the engine is still reachable from the results")
	}
	for i, d := range r.drivers {
		if d.Value() != nil {
			t.Errorf("driver %d is still reachable from the results", i)
		}
	}
}

func auditedConfig() SystemConfig {
	cfg := testConfig()
	cfg.Audit.Enabled = true
	return cfg
}

// auditFingerprint is what a caller reads back from an audit report.
type auditFingerprint struct {
	batches int
	digest  uint64
}

func fingerprint(t *testing.T, r *Result) auditFingerprint {
	t.Helper()
	if r.Audit == nil || r.Audit.BatchesAudited == 0 {
		t.Fatalf("audited run carries no audit report: %+v", r.Audit)
	}
	return auditFingerprint{r.Audit.BatchesAudited, r.Audit.FinalDigest}
}

// TestAuditedResultDoesNotPinSimulator checks that an audited Result
// references no part of the simulator that produced it: once the caller
// drops the Simulator, its engine and driver are collectable while the
// Result, audit report included, stays intact.
func TestAuditedResultDoesNotPinSimulator(t *testing.T) {
	run := func() (*Result, simRefs) {
		s, err := NewSimulator(auditedConfig())
		if err != nil {
			t.Fatal(err)
		}
		refs := weakRefs(s)
		res, err := s.Run(workloads.NewStream(8<<20, 24))
		if err != nil {
			t.Fatal(err)
		}
		return res, refs
	}
	res, refs := run()
	want := fingerprint(t, res)
	refs.requireCollected(t)
	if got := fingerprint(t, res); got != want {
		t.Errorf("audit report changed after collection: %+v, want %+v", got, want)
	}
	runtime.KeepAlive(res)
}

// TestConcurrentAuditedResultsDoNotPinSimulator is the two-device
// RunConcurrent form of TestAuditedResultDoesNotPinSimulator.
func TestConcurrentAuditedResultsDoNotPinSimulator(t *testing.T) {
	run := func() ([]*Result, simRefs) {
		s, err := NewMultiSimulator(auditedConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		refs := weakRefs(s)
		res, err := s.RunConcurrent([]workloads.Workload{
			workloads.NewStream(8<<20, 24),
			workloads.NewStream(4<<20, 24),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, refs
	}
	res, refs := run()
	want := make([]auditFingerprint, len(res))
	for i, r := range res {
		want[i] = fingerprint(t, r)
	}
	refs.requireCollected(t)
	for i, r := range res {
		if got := fingerprint(t, r); got != want[i] {
			t.Errorf("device %d: audit report changed after collection: %+v, want %+v", i, got, want[i])
		}
	}
	runtime.KeepAlive(res)
}
