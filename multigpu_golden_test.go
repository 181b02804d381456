package guvm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guvm"
	"guvm/internal/experiments"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

var updateMultiGPUGolden = flag.Bool("update-multigpu-golden", false,
	"rewrite testdata/multigpu.golden from the current build instead of comparing")

// multiGPUTestConfig is the shrunken integration-test profile (8 SMs,
// 64 MiB of GPU memory) the multi-device tests run under.
func multiGPUTestConfig() guvm.SystemConfig {
	cfg := guvm.DefaultConfig()
	cfg.GPU.NumSMs = 8
	cfg.Driver.GPUMemBytes = 64 << 20
	return cfg
}

// writeMultiGPURun runs two 8 MiB streams concurrently on a two-device
// system and records each device's batch count, kernel time and final
// state digest.
func writeMultiGPURun(t *testing.T, b *strings.Builder, name string, cfg guvm.SystemConfig) {
	t.Helper()
	m, err := guvm.NewMultiSimulator(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunConcurrent([]workloads.Workload{
		workloads.NewStream(8<<20, 16),
		workloads.NewStream(8<<20, 16),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "# %s (device batches kernel_ns failed final_digest)\n", name)
	for i, r := range rs {
		fmt.Fprintf(b, "%d %d %d %v %016x\n", i, len(r.Batches), int64(r.KernelTime), r.DeviceFailed, r.Audit.FinalDigest)
	}
}

// TestMultiGPUGolden freezes the multi-device path: the ext-multigpu
// artifact tables, plus per-device digests for the named-policy contention
// run and the device-death drill. Regenerate with -update-multigpu-golden
// only for a deliberate, explained behaviour change.
func TestMultiGPUGolden(t *testing.T) {
	var b strings.Builder
	a, err := experiments.ExtMultiGPU()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range a.Tables {
		fmt.Fprintf(&b, "# ext-multigpu: %s\n%s", tb.Title, tb.CSV())
	}

	policies := multiGPUTestConfig()
	policies.Driver.GPUMemBytes = 6 << 20
	policies.Policies = uvm.PolicySelection{Eviction: "fifo", Prefetch: "cross-block", BatchSizing: "adaptive"}
	policies.Audit.Enabled = true
	writeMultiGPURun(t, &b, "fifo/cross-block/adaptive contention", policies)

	drill := multiGPUTestConfig()
	drill.Audit.Enabled = true
	drill.Inject.EpochLength /= 4
	drill.Inject.KillDevice = 1
	drill.Inject.KillBatch = 3
	writeMultiGPURun(t, &b, "device-death drill", drill)

	got := b.String()
	path := filepath.Join("testdata", "multigpu.golden")
	if *updateMultiGPUGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-multigpu-golden to freeze): %v", err)
	}
	if got != string(want) {
		t.Fatalf("multi-GPU output diverged from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
