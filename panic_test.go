package guvm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/workloads"
)

// panicAtBatch is a driver observer that panics at the end of batch id.
type panicAtBatch struct{ id int }

func (p panicAtBatch) EndBatch(id int, _ *trace.BatchRecord, _ []gpu.Fault) {
	if id == p.id {
		panic(fmt.Sprintf("observer panic at batch %d", id))
	}
}

// TestRunPanicIsolated: a panic inside the simulation (here an observer
// at batch 3 of the golden stream run) ends that run with an error that
// matches sim.ErrCallbackPanic and no result, without crashing the
// process; the engine's own recover is the only one on the path. A fresh
// simulator then reproduces the run's frozen final digest.
func TestRunPanicIsolated(t *testing.T) {
	var (
		cfg SystemConfig
		mk  func() workloads.Workload
	)
	for _, tc := range goldenDigestCases() {
		if tc.name == "stream" {
			cfg, mk = tc.cfg, tc.mk
		}
	}
	if mk == nil {
		t.Fatal("no stream golden case")
	}

	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Driver.Observe(panicAtBatch{id: 3})
	res, err := s.Run(mk())
	if !errors.Is(err, sim.ErrCallbackPanic) {
		t.Fatalf("Run error %v, want one matching sim.ErrCallbackPanic", err)
	}
	if !strings.Contains(err.Error(), "observer panic at batch 3") {
		t.Errorf("error does not carry the panic value: %v", err)
	}
	if res != nil {
		t.Fatalf("panicked run returned a result: %+v", res)
	}

	_, _, final := recordedRun(t, cfg, mk())
	golden, err := os.ReadFile(filepath.Join("testdata", "digests_stream.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("final %016x\n", final)
	if !strings.HasSuffix(string(golden), want) {
		t.Fatalf("fresh run after a panicked one ends with %q, golden does not", want)
	}
}

// TestRunConcurrentPanicIsolated: on a two-device simulator, a panic in
// device 1's driver observer ends the shared run with an error matching
// sim.ErrCallbackPanic and no results, and the spent simulator refuses a
// second run.
func TestRunConcurrentPanicIsolated(t *testing.T) {
	m := mustMulti(t, testConfig(), 2)
	m.Drivers[1].Observe(panicAtBatch{id: 2})
	mk := func() workloads.Workload { return workloads.NewStream(8<<20, 16) }
	res, err := m.RunConcurrent([]workloads.Workload{mk(), mk()})
	if !errors.Is(err, sim.ErrCallbackPanic) {
		t.Fatalf("RunConcurrent error %v, want one matching sim.ErrCallbackPanic", err)
	}
	if !strings.Contains(err.Error(), "observer panic at batch 2") {
		t.Errorf("error does not carry the panic value: %v", err)
	}
	if res != nil {
		t.Fatalf("panicked run returned results: %+v", res)
	}
	if _, err := m.RunConcurrent([]workloads.Workload{mk(), mk()}); !errors.Is(err, ErrSimulatorReused) {
		t.Fatalf("second RunConcurrent err = %v, want ErrSimulatorReused", err)
	}
}
