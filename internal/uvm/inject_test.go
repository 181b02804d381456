package uvm

import (
	"errors"
	"reflect"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// mustInjector builds an injector or fails the test.
func mustInjector(t *testing.T, cfg faultinject.Config) *faultinject.Injector {
	t.Helper()
	in, err := faultinject.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestMigrationRetryRecovers drives transfers through a lossy link model:
// each injected failure re-pays the transfer plus exponential backoff, and
// the kernel still completes with every retry accounted.
func TestMigrationRetryRecovers(t *testing.T) {
	icfg := faultinject.DefaultConfig()
	icfg.MigrateFailRate = 0.3
	icfg.MigrateMaxRetries = 10 // deep budget: no migration goes fatal
	in := mustInjector(t, icfg)

	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	drv.SetInjector(in, 0)
	dev.SetInjector(in)
	base := drv.Alloc(2 * mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 600))

	st := drv.Stats()
	if st.MigratedPages != 600 {
		t.Fatalf("migrated %d pages, want 600", st.MigratedPages)
	}
	if st.MigRetries == 0 {
		t.Fatal("no migration retries at 30% fail rate")
	}
	is := in.Stats()
	if is.Migrate.Injected == 0 || is.Migrate.Recovered == 0 {
		t.Fatalf("migrate counters = %+v", is.Migrate)
	}
	if is.Migrate.Unrecovered != 0 {
		t.Fatalf("%d migrations went fatal under a deep retry budget", is.Migrate.Unrecovered)
	}
}

// TestMigrationRetryCostsVirtualTime verifies retries are not free: the
// same kernel under a lossy link finishes strictly later than baseline.
func TestMigrationRetryCostsVirtualTime(t *testing.T) {
	run := func(in *faultinject.Injector) sim.Time {
		eng, drv, dev := newSystem(smallGPU(), noPrefetch())
		drv.SetInjector(in, 0)
		dev.SetInjector(in)
		base := drv.Alloc(2 * mem.VABlockSize)
		runKernel(t, eng, dev, streamKernel(base, 600))
		return eng.Now()
	}
	baseline := run(nil)
	icfg := faultinject.DefaultConfig()
	icfg.MigrateFailRate = 0.5
	icfg.MigrateMaxRetries = 12
	lossy := run(mustInjector(t, icfg))
	if lossy <= baseline {
		t.Fatalf("lossy end %d not later than baseline %d", lossy, baseline)
	}
}

// TestMigrationExhaustionFails forces every transfer attempt to fail: the
// run must stop with a typed error, not hang or panic.
func TestMigrationExhaustionFails(t *testing.T) {
	icfg := faultinject.DefaultConfig()
	icfg.MigrateFailRate = 1.0
	icfg.MigrateMaxRetries = 2
	in := mustInjector(t, icfg)

	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	drv.SetInjector(in, 0)
	dev.SetInjector(in)
	base := drv.Alloc(mem.VABlockSize)
	if err := dev.LaunchKernel(streamKernel(base, 64), func() {}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	_, err := eng.Run()
	if !errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("engine error = %v, want ErrMigrationFailed", err)
	}
	if in.Stats().Migrate.Unrecovered == 0 {
		t.Fatal("fatal migration not counted as unrecovered")
	}
}

// TestHostAllocDegradation injects population failures and checks the
// driver degrades gracefully — shrinking its batch cap and retrying —
// rather than failing the run.
func TestHostAllocDegradation(t *testing.T) {
	icfg := faultinject.DefaultConfig()
	icfg.HostAllocFailRate = 0.3
	icfg.HostAllocMaxRetries = 20
	in := mustInjector(t, icfg)

	ucfg := noPrefetch()
	ucfg.AdaptiveMin = 16
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	drv.SetInjector(in, 0)
	dev.SetInjector(in)
	base := drv.Alloc(2 * mem.VABlockSize)
	runKernel(t, eng, dev, streamKernel(base, 600))

	st := drv.Stats()
	if st.HostAllocFailures == 0 {
		t.Fatal("no host allocation failures at 30% fail rate")
	}
	if st.BatchShrinks == 0 {
		t.Fatal("no batch shrinks despite population failures")
	}
	if drv.EffectiveBatchSize() >= DefaultConfig().BatchSize {
		t.Fatalf("effective batch %d did not shrink", drv.EffectiveBatchSize())
	}
	if st.MigratedPages != 600 {
		t.Fatalf("migrated %d pages, want 600", st.MigratedPages)
	}
	is := in.Stats()
	if is.HostAlloc.Recovered == 0 || is.HostAlloc.Unrecovered != 0 {
		t.Fatalf("host-alloc counters = %+v", is.HostAlloc)
	}
}

// TestHostAllocExhaustionFails drains the retry budget: the run must
// surface the wrapped hostos allocation error through the engine.
func TestHostAllocExhaustionFails(t *testing.T) {
	icfg := faultinject.DefaultConfig()
	icfg.HostAllocFailRate = 1.0
	icfg.HostAllocMaxRetries = 3
	in := mustInjector(t, icfg)

	eng, drv, dev := newSystem(smallGPU(), noPrefetch())
	drv.SetInjector(in, 0)
	dev.SetInjector(in)
	base := drv.Alloc(mem.VABlockSize)
	if err := dev.LaunchKernel(streamKernel(base, 64), func() {}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("run succeeded with a 100% population fail rate")
	}
	if in.Stats().HostAlloc.Unrecovered == 0 {
		t.Fatal("exhausted population not counted as unrecovered")
	}
}

// TestInertInjectorBitIdentical checks the disabled-injection guarantee at
// the driver level: a run with an all-rates-zero injector produces exactly
// the telemetry of a run with no injector at all.
func TestInertInjectorBitIdentical(t *testing.T) {
	run := func(in *faultinject.Injector) ([]sim.Time, Stats) {
		eng, drv, dev := newSystem(smallGPU(), noPrefetch())
		if in != nil {
			drv.SetInjector(in, 0)
			dev.SetInjector(in)
		}
		base := drv.Alloc(2 * mem.VABlockSize)
		runKernel(t, eng, dev, streamKernel(base, 600))
		var durs []sim.Time
		for _, b := range drv.Collector.Batches {
			durs = append(durs, b.Duration())
		}
		return durs, drv.Stats()
	}
	bareDurs, bareStats := run(nil)
	inertDurs, inertStats := run(mustInjector(t, faultinject.DefaultConfig()))
	if !reflect.DeepEqual(bareDurs, inertDurs) {
		t.Fatalf("batch durations diverge: %v vs %v", bareDurs, inertDurs)
	}
	if bareStats != inertStats {
		t.Fatalf("stats diverge:\nbare  %+v\ninert %+v", bareStats, inertStats)
	}
}

// TestExplicitCopyCapacityTyped pins the typed error for explicit
// oversubscription at the driver level.
func TestExplicitCopyCapacityTyped(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 2 * mem.VABlockSize
	_, drv, _ := newSystem(smallGPU(), ucfg)
	base := drv.Alloc(4 * mem.VABlockSize)
	_, err := drv.ExplicitCopyToGPU(base, 4*mem.VABlockSize)
	if !errors.Is(err, ErrCapacityExhausted) {
		t.Fatalf("err = %v, want ErrCapacityExhausted", err)
	}
}
