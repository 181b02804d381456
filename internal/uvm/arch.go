package uvm

// arch.go — the lifted stage graph. The PR-5 registry swaps per-stage
// policies inside one fixed pipeline; this file lifts the pipeline itself
// into the registry, so an architecture entry decides who observes
// faults, which stages run, and where mapping state lives. The paper's
// host-driven driver is re-expressed as the default entry, bit-identical
// to the pre-lift pipeline; the two alternatives model competing designs
// from the related work:
//
//	host-driven    — the paper's §2 design: the device raises a host
//	                 interrupt, the host driver fetches, dedups, services
//	                 and replays, and owns all mapping state.
//	gpu-driven     — GPUVM-style on-device paging: a page-management unit
//	                 on the GPU observes the fault buffer directly and
//	                 runs the same logical pipeline at device-local
//	                 latencies, eliminating the host round-trip.
//	access-counter — delayed migration: faults are first serviced by
//	                 mapping the page remotely (it stays in host memory,
//	                 accessed across the link), and migration is deferred
//	                 until the block's access counter crosses a threshold.
//
// Stage implementations stay architecture-agnostic: they never branch on
// the selected architecture. Every entry runs the batch stages of
// hostBatchStages; block steps dispatch through the list the registry
// entry declares.

import "guvm/internal/mem"

// ArchitectureInfo describes one registered UVM architecture — the
// declarative contract a registry entry states about itself.
type ArchitectureInfo struct {
	// Name is the registry key (the -arch flag / PolicySelection.Architecture
	// value).
	Name string
	// Description is the one-line -list-policies text.
	Description string
	// FaultObservation names who observes the fault buffer and at what
	// latency: "host-interrupt" (driver woken across PCIe) or "device"
	// (on-device page management watches the buffer directly).
	FaultObservation string
	// MappingOwner names the layer that owns mapping state: "host-driver"
	// (page tables and residency live with the host driver) or "device"
	// (the GPU's page-management unit updates them locally).
	MappingOwner string
	// BlockSteps is the profiler label contract: the per-block step list
	// this architecture runs, in execution order. The obs profiler labels
	// its per-step attribution columns from it.
	BlockSteps []string
}

// archPayload is the executable half of an architecture entry: its block
// steps plus the wiring the driver applies at construction.
type archPayload struct {
	info       ArchitectureInfo
	blockSteps []blockStep
	// configure rewrites the driver config at construction (cost model,
	// thresholds); nil leaves it untouched. host-driven keeps a nil
	// configure so the default architecture cannot perturb the config.
	configure func(*Config)
	// counters enables the device access counters regardless of the
	// eviction policy; remote marks remote (host-pinned) mappings as
	// architectural state the device must consult on every access.
	counters bool
	remote   bool
	// directObs makes the device notify the fault observer at its
	// device-local latency instead of the host interrupt latency.
	directObs bool
}

// The shipped stage graphs. Every architecture runs the paper's batch
// stages; host-driven and gpu-driven run its block steps, and
// access-counter prepends the gate that decides remote-map vs migrate for
// each faulting block.
var (
	hostBatchStages = []stage{dedupStage{}, serviceStage{}, crossBlockStage{}, replayStage{}}
	hostBlockSteps  = []blockStep{residencyStep{}, prefetchPlanStep{}, populateStep{}, transferStep{}}

	counterBlockSteps = []blockStep{counterGateStep{}, residencyStep{}, prefetchPlanStep{}, populateStep{}, transferStep{}}
)

func blockStepLabels(ss []blockStep) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name()
	}
	return out
}

var architectureRegistry = &policyTable{kind: KindArchitecture}

// maxBlockSteps bounds an architecture's block-step count: the driver's
// per-step profiling scratch is a fixed array of this size (mirrored by
// the obs profiler's retention cap).
const maxBlockSteps = 8

// registerArchitecture fills in the label contract from the block steps
// themselves, so the declared labels can never drift from what runs.
func registerArchitecture(p *archPayload) {
	if len(p.blockSteps) > maxBlockSteps {
		panic("uvm: architecture " + p.info.Name + " declares too many block steps")
	}
	p.info.BlockSteps = blockStepLabels(p.blockSteps)
	architectureRegistry.register(p.info.Name, p.info.Description, p)
}

func init() {
	registerArchitecture(&archPayload{
		info: ArchitectureInfo{
			Name:             "host-driven",
			Description:      "the paper's driver: interrupt-woken host services fault batches (default)",
			FaultObservation: "host-interrupt",
			MappingOwner:     "host-driver",
		},
		blockSteps: hostBlockSteps,
	})

	registerArchitecture(&archPayload{
		info: ArchitectureInfo{
			Name:             "gpu-driven",
			Description:      "GPUVM-style on-device paging: no host round-trip, device-local service latencies",
			FaultObservation: "device",
			MappingOwner:     "device",
		},
		blockSteps: hostBlockSteps,
		directObs:  true,
		configure: func(c *Config) {
			// The same logical pipeline, run by an on-device page-management
			// unit: no PCIe interrupt plus driver wakeup, no per-fault PCIe
			// read-back, and a local TLB shootdown instead of a host-issued
			// replay doorbell. Values follow the GPUVM paper's observation
			// that on-device handling removes the ~20-40 µs host costs.
			c.Costs.WakeupLatency = 1000 // buffer poll notice, not a wakeup
			c.Costs.BatchSetup = 3000    // device-local queue setup
			c.Costs.FetchPerFault = 100  // local SRAM read, not PCIe
			c.Costs.ReplayCost = 10000   // local replay doorbell
		},
	})

	registerArchitecture(&archPayload{
		info: ArchitectureInfo{
			Name:             "access-counter",
			Description:      "delayed migration: remote-map faults first, migrate when the block's access counter crosses the threshold",
			FaultObservation: "host-interrupt",
			MappingOwner:     "host-driver",
		},
		blockSteps: counterBlockSteps,
		counters:   true,
		remote:     true,
		configure: func(c *Config) {
			if c.AccessCounterThreshold == 0 {
				c.AccessCounterThreshold = 16
			}
		},
	})
}

// Architectures lists the registered UVM architectures in registration
// order (host-driven first).
func Architectures() []ArchitectureInfo {
	out := make([]ArchitectureInfo, 0, len(architectureRegistry.entries))
	for _, e := range architectureRegistry.entries {
		out = append(out, e.payload.(*archPayload).info)
	}
	return out
}

// ArchitectureByName returns the declarative contract of one registered
// architecture. The empty string resolves to the default (host-driven).
func ArchitectureByName(name string) (ArchitectureInfo, error) {
	p, err := resolveArchitecture(name)
	if err != nil {
		return ArchitectureInfo{}, err
	}
	return p.info, nil
}

// Architecture returns the declarative contract of the architecture this
// driver runs (resolved at construction; the default is host-driven).
func (d *Driver) Architecture() ArchitectureInfo { return d.arch.info }

// RemoteMappingActive reports whether the selected architecture services
// faults by remote mapping (access-counter). The device uses it as a
// capability gate: when false, the remote check never enters the access
// hot path.
func (d *Driver) RemoteMappingActive() bool { return d.arch.remote }

// IsRemoteOnGPU reports whether the page is remote-mapped: GPU-accessible
// across the link while its data stays in host memory.
func (d *Driver) IsRemoteOnGPU(p mem.PageID) bool {
	b := d.blocks.Lookup(p.VABlock())
	return b != nil && b.remoteMapped.Has(p.IndexInBlock())
}

// resolveArchitecture maps a name to its payload; "" is the default.
func resolveArchitecture(name string) (*archPayload, error) {
	p, err := architectureRegistry.resolve(name, "host-driven")
	if err != nil {
		return nil, err
	}
	return p.(*archPayload), nil
}
