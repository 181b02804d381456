// Package guvm is a discrete-event simulation of the NVIDIA Unified
// Virtual Memory (UVM) system, reproducing the system under study in
// Allen & Ge, "In-Depth Analyses of Unified Virtual Memory System for GPU
// Accelerated Computing" (SC '21). It models the full fault path: GPU
// fault generation (SMs, µTLBs, throttling, the fault buffer), the UVM
// driver (fault batching, VABlock servicing, duplicate handling, density
// prefetching, LRU eviction), the host OS costs on the fault path
// (unmap_mapping_range, page population, radix-tree DMA bookkeeping), and
// the PCIe interconnect.
//
// Quick start:
//
//	sim, err := guvm.NewSimulator(guvm.DefaultConfig())
//	res, err := sim.Run(workloads.NewStream(64<<20, 128))
//	// res.Batches holds per-batch telemetry; res.KernelTime the GPU time.
//
// A Simulator models N GPUs sharing one host (NewMultiSimulator); the
// single-GPU system is N=1. One Simulator runs once; create a fresh
// Simulator per run.
package guvm

import (
	"errors"
	"fmt"

	"guvm/internal/audit"
	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// ErrStalled is the sentinel for a run that drained its event queue with
// the kernel still incomplete: some fault was lost and never recovered
// (reachable only under fault injection, e.g. dropped fault records whose
// re-emission budget ran out with no later replay to re-fault them).
var ErrStalled = errors.New("guvm: simulation stalled")

// ErrSimulatorReused is the sentinel matched by errors.Is when a
// single-shot Simulator is run a second time.
var ErrSimulatorReused = errors.New("guvm: simulator is single-shot; create a new one per run")

// SystemConfig assembles the configuration of every modeled component.
type SystemConfig struct {
	GPU    gpu.Config
	Driver uvm.Config
	Host   hostos.CostModel
	Link   interconnect.Config
	// MaxEvents bounds the simulation as a livelock backstop.
	MaxEvents uint64
	// MaxStallEvents aborts the run once this many consecutive events
	// execute without the virtual clock advancing — a no-progress
	// watchdog that catches zero-delay scheduling loops long before
	// MaxEvents would. Zero disables it. Both budgets count engine
	// events: a GPU completion group, which completes every access due
	// at one instant back to back, counts as one event however many
	// accesses it holds.
	MaxStallEvents uint64
	// Inject configures the deterministic fault-injection layer: the
	// software categories (fault-buffer drops, migration and host
	// allocation failures) and the hardware regimes (link degradation
	// and flapping, scheduled device death). The zero value (all rates
	// zero, no kill) disables injection and leaves every simulation
	// output bit-identical to an injector-free run.
	Inject faultinject.Config
	// KeepFaults retains every fetched fault record in the result
	// (needed by fault-timeline experiments; memory-heavy).
	KeepFaults bool
	// KeepSpans retains the page spans each batch migrated in
	// (Result.Spans; needed by fault-behaviour plots).
	KeepSpans bool
	// Audit configures the runtime invariant auditor. The zero value
	// attaches no auditor and leaves the run unobserved.
	Audit audit.Config
	// Obs configures the observability layer (span tracing, metrics
	// sampling). The zero value attaches nothing: no observer hooks, no
	// instrumentation, zero cost on the fault-service path.
	Obs obs.Config
	// Policies names the driver's eviction, prefetch and batch-sizing
	// policies and its architecture (the stage graph itself), one
	// registry name each (see uvm.Policies for the catalog). It is the
	// only place a policy is chosen; Driver holds parameters. An empty
	// field selects the default (see uvm.PolicySelection); an
	// unregistered name makes NewSimulator return an error wrapping
	// uvm.ErrUnknownPolicy before anything is built.
	Policies uvm.PolicySelection
}

// DefaultConfig returns the experiment-scale profile: a Titan-V-like GPU
// with a scaled 256 MB memory capacity so oversubscription studies run in
// seconds (see DESIGN.md §1 on scaling).
func DefaultConfig() SystemConfig {
	return SystemConfig{
		GPU:            gpu.DefaultTitanV(),
		Driver:         uvm.DefaultConfig(),
		Host:           hostos.DefaultCostModel(),
		Link:           interconnect.DefaultPCIe3x16(),
		MaxEvents:      500_000_000,
		MaxStallEvents: 2_000_000,
		Inject:         faultinject.DefaultConfig(),
	}
}

// TitanVConfig returns the full paper-testbed profile with 12 GB of GPU
// memory. Workload footprints must be scaled up accordingly.
func TitanVConfig() SystemConfig {
	c := DefaultConfig()
	c.Driver.GPUMemBytes = 12 << 30
	return c
}

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	// KernelTime is the summed duration of all GPU phases (the "Kernel"
	// column of Table 4).
	KernelTime sim.Time
	// TotalTime is the end-to-end virtual time including host phases
	// and trailing driver work.
	TotalTime sim.Time
	// Batches is the per-batch telemetry (aliases the collector's
	// records).
	Batches []trace.BatchRecord
	// Faults holds every fetched fault when KeepFaults was set, with
	// FaultBatch mapping each to its batch ID.
	Faults     []gpu.Fault
	FaultBatch []int
	// Spans holds the page spans each batch migrated in when KeepSpans
	// was set, in service order, with SpanBatch mapping each to its
	// batch ID.
	Spans     []mem.Span
	SpanBatch []int
	// Bases are the allocation base addresses, in workload Allocs order.
	Bases []mem.Addr

	DriverStats uvm.Stats
	DeviceStats gpu.Stats
	HostStats   hostos.Stats
	LinkStats   interconnect.Stats
	// InjectStats holds the per-category injected/retried/recovered/
	// unrecovered counters and the device-death count (all zero when
	// injection is disabled).
	InjectStats faultinject.Stats
	// DeviceFailed reports that the injector's kill schedule killed the
	// device mid-run; the driver re-homed every resident page to the
	// host (DriverStats.RehomedPages) and the workload was truncated.
	DeviceFailed bool
	// Audit is the invariant auditor's report (nil unless
	// SystemConfig.Audit is enabled). It is detached from the auditor:
	// keeping a Result keeps no engine, driver, device or host VM alive.
	Audit *audit.Report
}

// BatchTime sums all batch durations.
func (r *Result) BatchTime() sim.Time {
	var t sim.Time
	for i := range r.Batches {
		t += r.Batches[i].Duration()
	}
	return t
}

// BytesMigrated sums to-GPU migration volume.
func (r *Result) BytesMigrated() uint64 {
	var n uint64
	for i := range r.Batches {
		n += r.Batches[i].BytesMigrated
	}
	return n
}

// Simulator wires N GPUs onto one host: each device has its own driver
// state, memory and PCIe link, while the host VM, the injector and the one
// host fault-servicing slot (the Arbiter) are shared — the paper's
// client-server architecture (§2.1), where the serial host driver services
// every client. The single-GPU system is the N=1 case.
type Simulator struct {
	Config SystemConfig
	Engine *sim.Engine
	// Devices and Drivers hold one entry per device; Auditors likewise
	// when SystemConfig.Audit is enabled, and is empty otherwise.
	Devices  []*gpu.Device
	Drivers  []*uvm.Driver
	Auditors []*audit.Auditor
	// Device and Driver are Devices[0] and Drivers[0].
	Device *gpu.Device
	Driver *uvm.Driver
	HostVM *hostos.VM
	// Arbiter serializes batch servicing across the drivers and records
	// device-loss recoveries.
	Arbiter *uvm.Arbiter
	// Injector is the shared fault injector. Link-health draws stay
	// independent per device: each decision folds in the link index.
	Injector *faultinject.Injector
	// Obs is the attached observer (nil unless SystemConfig.Obs is
	// active). A nil observer is safe to call everywhere.
	Obs *obs.Observer

	used bool
}

// NewSimulator builds a single-GPU simulator. An invalid component or
// injection configuration is an error.
func NewSimulator(cfg SystemConfig) (*Simulator, error) {
	return NewMultiSimulator(cfg, 1)
}

// NewMultiSimulator builds an n-device simulator. The host VM is shared
// (one OS); links are per-device (separate PCIe slots). All devices share
// one injector, so injection decisions stay deterministic under the
// engine's global event order. The observability layer attaches to a
// single device only, so an active SystemConfig.Obs with n > 1 is an
// error.
func NewMultiSimulator(cfg SystemConfig, n int) (*Simulator, error) {
	if n < 1 {
		return nil, fmt.Errorf("guvm: %d devices, need at least one", n)
	}
	if err := cfg.Policies.Validate(); err != nil {
		return nil, err
	}
	if n > 1 && cfg.Obs.Active() {
		return nil, fmt.Errorf("guvm: observability attaches to one device, system has %d", n)
	}
	eng := sim.NewEngine()
	eng.MaxEvents = cfg.MaxEvents
	eng.MaxStallEvents = cfg.MaxStallEvents
	vm := hostos.NewVM(cfg.Host)
	inj, err := faultinject.New(cfg.Inject)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		Config:   cfg,
		Engine:   eng,
		HostVM:   vm,
		Arbiter:  uvm.NewArbiter(eng),
		Injector: inj,
	}
	if cfg.Inject.KillBatch > 0 && cfg.Inject.KillDevice >= n {
		return nil, fmt.Errorf("guvm: Inject.KillDevice = %d, system has %d devices",
			cfg.Inject.KillDevice, n)
	}
	// With several drivers sharing one injector, the per-device audit
	// checks that reconcile against it are disabled.
	shared := n > 1
	for i := 0; i < n; i++ {
		link := interconnect.NewLink(cfg.Link)
		drv, err := uvm.NewDriver(cfg.Driver, cfg.Policies, eng, vm, link)
		if err != nil {
			return nil, err
		}
		drv.Collector.KeepFaults = cfg.KeepFaults
		drv.Collector.KeepSpans = cfg.KeepSpans
		dev, err := gpu.NewDevice(cfg.GPU, eng, drv)
		if err != nil {
			return nil, err
		}
		drv.Attach(dev)
		drv.SetArbiter(s.Arbiter)
		drv.SetInjector(inj, i)
		dev.SetInjector(inj)
		if a := audit.New(cfg.Audit, shared, eng, drv, dev, vm, inj); a != nil {
			s.Auditors = append(s.Auditors, a)
		}
		s.Drivers = append(s.Drivers, drv)
		s.Devices = append(s.Devices, dev)
	}
	s.Driver, s.Device = s.Drivers[0], s.Devices[0]
	if cfg.Obs.Active() {
		drv := s.Driver
		s.Obs = obs.New(cfg.Obs)
		s.registerMetrics()
		if s.Obs.Profiler != nil {
			// Registered before the observer, so profiler metrics are
			// current when the observer samples the registry. Its
			// per-step attribution follows the architecture's declared
			// block-step label contract.
			s.Obs.Profiler.SetBlockStepLabels(drv.Architecture().BlockSteps)
			drv.Observe(s.Obs.Profiler)
		}
		drv.Observe(s.Obs)
		if cfg.Obs.Trace && cfg.Obs.EngineEvents {
			eng.OnEvent = s.Obs.NoteEvent
		}
	}
	return s, nil
}

// registerMetrics exposes every subsystem's counters as pull gauges over
// the live component state. The functions run only at sample points on the
// simulation goroutine (Stats() returns copies), so registration adds no
// instrumentation to the fault-service hot path.
func (s *Simulator) registerMetrics() {
	r := s.Obs.Registry
	r.Func("guvm_sim_time_ns", "Current virtual time in nanoseconds",
		func() float64 { return float64(s.Engine.Now()) })
	// A GPU completion group (all access completions due back to back at
	// one instant) is one dispatched event.
	r.Func("guvm_engine_events_total", "Events dispatched by the simulation engine",
		func() float64 { return float64(s.Engine.Executed()) })

	r.Func("guvm_driver_batches_total", "Fault batches serviced",
		func() float64 { return float64(s.Driver.Stats().Batches) })
	r.Func("guvm_driver_faults_total", "Fault records fetched across batches",
		func() float64 { return float64(s.Driver.Stats().TotalFaults) })
	r.Func("guvm_driver_stale_faults_total", "Fetched faults already resident (stale duplicates)",
		func() float64 { return float64(s.Driver.Stats().StaleFaults) })
	r.Func("guvm_driver_evictions_total", "VABlock evictions under memory pressure",
		func() float64 { return float64(s.Driver.Stats().Evictions) })
	r.Func("guvm_driver_prefetched_pages_total", "Pages migrated by density prefetching",
		func() float64 { return float64(s.Driver.Stats().PrefetchedPages) })
	r.Func("guvm_driver_migrated_pages_total", "Pages migrated to the GPU on the fault path",
		func() float64 { return float64(s.Driver.Stats().MigratedPages) })
	r.Func("guvm_driver_wakeups_total", "Driver wakeups from fault-buffer interrupts",
		func() float64 { return float64(s.Driver.Stats().WakeUps) })
	r.Func("guvm_driver_batch_shrinks_total", "Effective-batch halvings under host allocation pressure",
		func() float64 { return float64(s.Driver.Stats().BatchShrinks) })

	r.Func("guvm_gpu_faults_emitted_total", "Fault records written to the fault buffer",
		func() float64 { return float64(s.Device.Stats().FaultsEmitted) })
	r.Func("guvm_gpu_dup_faults_total", "Fault records emitted while the page was already pending",
		func() float64 { return float64(s.Device.Stats().DupFaults) })
	r.Func("guvm_gpu_refaults_total", "Accesses re-faulted after an unserviced replay",
		func() float64 { return float64(s.Device.Stats().Refaults) })
	r.Func("guvm_gpu_throttle_stalls_total", "Issue attempts delayed by the SM rate throttle",
		func() float64 { return float64(s.Device.Stats().ThrottleStalls) })
	r.Func("guvm_gpu_utlb_full_stalls_total", "Warp stalls on µTLB capacity",
		func() float64 { return float64(s.Device.Stats().UTLBFullStalls) })
	r.Func("guvm_gpu_blocks_completed_total", "Thread blocks retired",
		func() float64 { return float64(s.Device.Stats().BlocksCompleted) })

	r.Func("guvm_host_unmap_calls_total", "unmap_mapping_range invocations",
		func() float64 { return float64(s.HostVM.Stats().UnmapCalls) })
	r.Func("guvm_host_pages_unmapped_total", "CPU PTEs torn down",
		func() float64 { return float64(s.HostVM.Stats().PagesUnmapped) })
	r.Func("guvm_host_pages_populated_total", "Host pages populated on the fault path",
		func() float64 { return float64(s.HostVM.Stats().PagesPopulated) })
	r.Func("guvm_host_dma_pages_mapped_total", "Reverse-DMA pages tracked in the radix tree",
		func() float64 { return float64(s.HostVM.Stats().DMAPagesMapped) })
	r.Func("guvm_host_radix_nodes", "Radix-tree nodes currently allocated",
		func() float64 { return float64(s.HostVM.Stats().RadixNodes) })

	r.Func("guvm_link_ops_total", "Interconnect transfer operations",
		func() float64 { return float64(s.Driver.Link().Stats().Ops) })
	r.Func("guvm_link_bytes_to_gpu_total", "Bytes moved host-to-GPU",
		func() float64 { return float64(s.Driver.Link().Stats().BytesToGPU) })
	r.Func("guvm_link_bytes_to_host_total", "Bytes moved GPU-to-host",
		func() float64 { return float64(s.Driver.Link().Stats().BytesToHost) })

	if s.Injector.Hardware() {
		r.Func("guvm_hw_link_health", "Current link health (0 healthy, 1 degraded, 2 flapping, 3 dead)",
			func() float64 { return float64(s.Driver.Link().Health()) })
		r.Func("guvm_hw_degraded_epochs_total", "Link-health epochs drawn degraded so far",
			func() float64 {
				_, deg, _ := s.Injector.EpochHealthCounts(0, s.Engine.Now())
				return float64(deg)
			})
		r.Func("guvm_hw_flapping_epochs_total", "Link-health epochs drawn flapping so far",
			func() float64 {
				_, _, flap := s.Injector.EpochHealthCounts(0, s.Engine.Now())
				return float64(flap)
			})
		r.Func("guvm_hw_link_retries_total", "Transfer operations re-carried after injected drops",
			func() float64 { return float64(s.Driver.Stats().HWLinkRetries) })
		r.Func("guvm_hw_degraded_shrinks_total", "Batch halvings by the degraded-aware sizer",
			func() float64 { return float64(s.Driver.Stats().DegradedShrinks) })
		r.Func("guvm_hw_rehomed_pages_total", "Pages re-homed to the host after device death",
			func() float64 { return float64(s.Driver.Stats().RehomedPages) })
		r.Func("guvm_hw_devices_killed_total", "Devices killed by the fault schedule",
			func() float64 { return float64(s.Injector.Stats().DevicesKilled) })
		r.Func("guvm_hw_transfer_injected_total", "Injected link-transfer drops",
			func() float64 { return float64(s.Injector.Stats().LinkTransfer.Injected) })
		r.Func("guvm_hw_transfer_recovered_total", "Transfers recovered after injected drops",
			func() float64 { return float64(s.Injector.Stats().LinkTransfer.Recovered) })
		r.Func("guvm_hw_transfer_unrecovered_total", "Transfers that exhausted their retry budget",
			func() float64 { return float64(s.Injector.Stats().LinkTransfer.Unrecovered) })
	}

	for _, cat := range []struct {
		name string
		get  func() faultinject.Counters
	}{
		{"buffer_drop", func() faultinject.Counters { return s.Injector.Stats().BufferDrop }},
		{"migrate", func() faultinject.Counters { return s.Injector.Stats().Migrate }},
		{"host_alloc", func() faultinject.Counters { return s.Injector.Stats().HostAlloc }},
	} {
		c := cat
		r.Func("guvm_inject_"+c.name+"_injected_total", "Faults injected in category "+c.name,
			func() float64 { return float64(c.get().Injected) })
		r.Func("guvm_inject_"+c.name+"_retried_total", "Retries after injection in category "+c.name,
			func() float64 { return float64(c.get().Retried) })
		r.Func("guvm_inject_"+c.name+"_recovered_total", "Operations recovered after injection in category "+c.name,
			func() float64 { return float64(c.get().Recovered) })
		r.Func("guvm_inject_"+c.name+"_unrecovered_total", "Operations that exhausted retries in category "+c.name,
			func() float64 { return float64(c.get().Unrecovered) })
	}
}

// Run executes the workload under UVM demand paging and returns its
// telemetry. A Simulator is single-shot: a second Run returns an error.
func (s *Simulator) Run(w workloads.Workload) (*Result, error) {
	return first(s.run([]workloads.Workload{w}, false))
}

// RunExplicit executes the workload under explicit (cudaMemcpy-style)
// management: every allocation is bulk-copied to the GPU before the first
// kernel, so no faults occur. This is the Figure 1 baseline.
func (s *Simulator) RunExplicit(w workloads.Workload) (*Result, error) {
	return first(s.run([]workloads.Workload{w}, true))
}

// RunConcurrent executes workload i on device i, all starting at virtual
// time zero, and returns one Result per device.
func (s *Simulator) RunConcurrent(ws []workloads.Workload) ([]*Result, error) {
	return s.run(ws, false)
}

func first(rs []*Result, err error) (*Result, error) {
	if rs == nil {
		return nil, err
	}
	return rs[0], err
}

// run drives workload i on device i. Every allocation is validated before
// the first one is made, so a rejected allocation leaves the simulator
// unused. The phases bind to the allocated bases, so their host-thread
// counts are checked after allocation, before the engine starts; that
// rejection consumes the simulator.
func (s *Simulator) run(ws []workloads.Workload, explicit bool) ([]*Result, error) {
	if s.used {
		return nil, fmt.Errorf("guvm: Simulator already ran: %w", ErrSimulatorReused)
	}
	if len(ws) != len(s.Devices) {
		return nil, fmt.Errorf("guvm: %d workloads for %d devices", len(ws), len(s.Devices))
	}
	allocs := make([][]workloads.Alloc, len(ws))
	for i, w := range ws {
		allocs[i] = w.Allocs()
		var totalBytes uint64
		for j, a := range allocs[i] {
			if a.Bytes == 0 {
				return nil, fmt.Errorf("guvm: workload %q allocation %d is empty", w.Name(), j)
			}
			if a.HostInit {
				if err := hostos.CheckThreads(a.HostThreads); err != nil {
					return nil, fmt.Errorf("guvm: workload %q allocation %d: %w", w.Name(), j, err)
				}
			}
			totalBytes += a.Bytes
		}
		if explicit && totalBytes > s.Config.Driver.GPUMemBytes {
			return nil, fmt.Errorf("guvm: explicit management cannot oversubscribe: need %d bytes, capacity %d",
				totalBytes, s.Config.Driver.GPUMemBytes)
		}
	}
	s.used = true

	// Error messages name the device only when there is more than one.
	where := func(i int) string {
		if len(ws) == 1 {
			return ""
		}
		return fmt.Sprintf("device %d ", i)
	}
	bases := make([][]mem.Addr, len(ws))
	phaseLists := make([][]workloads.Phase, len(ws))
	for i, w := range ws {
		bases[i] = make([]mem.Addr, len(allocs[i]))
		for j, a := range allocs[i] {
			var opts []uvm.AllocOption
			if a.HostInit && !explicit {
				opts = append(opts, uvm.WithHostInit(a.HostThreads))
			}
			bases[i][j] = s.Drivers[i].Alloc(a.Bytes, opts...)
		}
		phaseLists[i] = w.Phases(bases[i])
		for p, ph := range phaseLists[i] {
			for _, ht := range ph.HostTouches {
				if err := hostos.CheckThreads(ht.Threads); err != nil {
					return nil, fmt.Errorf("guvm: %sworkload %q phase %d: %w", where(i), w.Name(), p, err)
				}
			}
		}
	}

	if s.Obs != nil {
		name := ws[0].Name()
		s.Obs.SetStatusFunc(func() any {
			return map[string]any{
				"workload":    name,
				"sim_time_ns": int64(s.Engine.Now()),
				"batches":     s.Driver.Stats().Batches,
				"faults":      s.Driver.Stats().TotalFaults,
				"events":      s.Engine.Executed(),
			}
		})
	}

	kernelTimes := make([]sim.Time, len(ws))
	for i := range ws {
		drv, dev := s.Drivers[i], s.Devices[i]
		phases := phaseLists[i]
		var runPhase func(p int)
		runPhase = func(p int) {
			if p >= len(phases) {
				return
			}
			ph := phases[p]
			for _, ht := range ph.HostTouches {
				if !explicit {
					drv.TouchHost(ht.Base, ht.Bytes, ht.Threads)
				}
			}
			if ph.Kernel.NumBlocks == 0 {
				runPhase(p + 1)
				return
			}
			if s.Config.Driver.AsyncUnmap && !explicit {
				// §6 extension: unmap CPU mappings preemptively as the
				// application shifts to GPU compute, overlapping launch.
				drv.PreUnmapAllocations()
			}
			start := s.Engine.Now()
			err := dev.LaunchKernel(ph.Kernel, func() {
				kernelTimes[i] += s.Engine.Now() - start
				s.Obs.OnKernel(p, start, s.Engine.Now()-start)
				runPhase(p + 1)
			})
			if err != nil {
				s.Engine.Fail(fmt.Errorf("guvm: %sphase %d: %w", where(i), p, err))
			}
		}
		s.Engine.Schedule(0, func() {
			if !explicit {
				runPhase(0)
				return
			}
			var copyCost sim.Time
			for j, a := range allocs[i] {
				c, err := drv.ExplicitCopyToGPU(bases[i][j], a.Bytes)
				if err != nil {
					s.Engine.Fail(fmt.Errorf("guvm: %sallocation %d: %w", where(i), j, err))
					return
				}
				copyCost += c
			}
			s.Engine.Schedule(copyCost, func() { runPhase(0) })
		})
	}

	_, failure := s.Engine.Run()
	for i, dev := range s.Devices {
		if failure == nil && dev.Running() {
			// The event queue drained with the kernel incomplete: a fault
			// was lost for good (injected drops past their retry budget
			// with no later replay). Surface a typed diagnostic, not a hang.
			failure = fmt.Errorf("guvm: %skernel incomplete at virtual time %d ns with no pending events: %w",
				where(i), s.Engine.Now(), ErrStalled)
		}
	}
	auditReps := make([]*audit.Report, len(ws))
	for i, a := range s.Auditors {
		auditReps[i] = a.Finish(failure)
	}
	// Final publish so live endpoints and exports see end-of-run state
	// even when the run finished between sample points.
	s.Obs.Publish()
	if failure != nil {
		return nil, failure
	}

	results := make([]*Result, len(ws))
	var auditErr error
	for i, drv := range s.Drivers {
		col := drv.Collector
		results[i] = &Result{
			Workload:     ws[i].Name(),
			KernelTime:   kernelTimes[i],
			TotalTime:    s.Engine.Now(),
			Batches:      col.Batches,
			Faults:       col.Faults,
			FaultBatch:   col.FaultBatch,
			Spans:        col.Spans,
			SpanBatch:    col.SpanBatch,
			Bases:        bases[i],
			DriverStats:  drv.Stats(),
			DeviceStats:  s.Devices[i].Stats(),
			HostStats:    s.HostVM.Stats(),
			LinkStats:    drv.Link().Stats(),
			InjectStats:  s.Injector.Stats(),
			DeviceFailed: drv.Dead(),
			Audit:        auditReps[i],
		}
		if err := auditReps[i].Err(); err != nil && auditErr == nil {
			// End-of-run checks failed on an otherwise clean run: hand
			// back the telemetry (the report pinpoints the violation) plus
			// the typed error.
			auditErr = fmt.Errorf("guvm: %srun completed but failed its audit: %w", where(i), err)
		}
	}
	return results, auditErr
}
