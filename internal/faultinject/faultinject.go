// Package faultinject is the simulator's seeded, deterministic
// fault-injection subsystem. It lets experiments controllably stress the
// degradation behaviours the paper studies only at their onset —
// fault-buffer pressure, migration stalls, host memory exhaustion — and
// turns failure scenarios into first-class, regression-testable
// experiments: the same seed and the same injection configuration always
// produce the same injected faults, the same retries and the same
// telemetry.
//
// Three injection categories are modeled, each with its own independent
// RNG stream derived from the seed (so enabling one category never
// perturbs another's draw sequence):
//
//   - BufferDrop: an arriving fault-buffer record is dropped as if the
//     circular buffer had overflowed. Hardware-style replay retry
//     re-emits the record after a delay, up to a bounded budget; records
//     that exhaust it are recovered by the driver's next fault replay.
//   - Migrate: one DMA/migration transfer attempt fails transiently. The
//     driver retries with exponential backoff in virtual time; exhausting
//     the budget is an unrecoverable uvm.ErrMigrationFailed.
//   - HostAlloc: a host-OS page allocation (population) request fails.
//     The driver degrades gracefully — shrinking its effective batch size
//     and forcing eviction pressure — and retries instead of aborting.
//
// A nil *Injector is valid and injects nothing, so model code can hold an
// optional injector without guarding every call site.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"guvm/internal/sim"
)

// Per-category seed salts: distinct odd constants so the streams derived
// from one user seed are unrelated (sim.RNG is a SplitMix64 generator; any
// distinct non-zero salt decorrelates the sequences).
const (
	saltBufferDrop = 0x9e3779b97f4a7c15
	saltMigrate    = 0xbf58476d1ce4e5b9
	saltHostAlloc  = 0x94d049bb133111eb
)

// Config holds the injection knobs. The zero value (all rates zero)
// disables injection entirely: no RNG draws happen and the simulation is
// bit-identical to one without an injector.
type Config struct {
	// Seed derives every category's deterministic RNG stream.
	Seed uint64

	// BufferDropRate is the probability in [0, 1] that a fault record
	// arriving at the GPU fault buffer is dropped as if the buffer had
	// overflowed.
	BufferDropRate float64
	// BufferDropRetries is the hardware-style re-emission budget per
	// dropped record. A record that exhausts it stays lost until the
	// next driver fault replay re-faults the access.
	BufferDropRetries int
	// BufferRetryDelay is the virtual-time delay before a dropped
	// record's re-emission attempt.
	BufferRetryDelay sim.Time

	// MigrateFailRate is the probability in [0, 1] that one
	// DMA/migration transfer attempt fails transiently.
	MigrateFailRate float64
	// MigrateMaxRetries bounds the retry attempts per migration; a
	// migration that fails MigrateMaxRetries+1 times is unrecoverable.
	MigrateMaxRetries int
	// MigrateBackoff is the virtual-time backoff charged before the
	// first retry; it doubles on every further attempt.
	MigrateBackoff sim.Time

	// HostAllocFailRate is the probability in [0, 1] that a host-OS page
	// allocation (population) request fails.
	HostAllocFailRate float64
	// HostAllocMaxRetries bounds the driver's degrade-and-retry attempts
	// per allocation request.
	HostAllocMaxRetries int
}

// DefaultConfig returns an inert configuration (all rates zero) with
// sensible retry budgets and delays, so callers only need to raise the
// rate of the category they want to stress.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		BufferDropRetries:   3,
		BufferRetryDelay:    5 * sim.Microsecond,
		MigrateMaxRetries:   4,
		MigrateBackoff:      10 * sim.Microsecond,
		HostAllocMaxRetries: 6,
	}
}

// Enabled reports whether any category can inject.
func (c Config) Enabled() bool {
	return c.BufferDropRate > 0 || c.MigrateFailRate > 0 || c.HostAllocFailRate > 0
}

// Validate checks the configuration for values injection cannot run with.
func (c Config) Validate() error {
	check := func(name string, rate float64) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("faultinject: %s = %v, need in [0, 1]", name, rate)
		}
		return nil
	}
	if err := check("BufferDropRate", c.BufferDropRate); err != nil {
		return err
	}
	if err := check("MigrateFailRate", c.MigrateFailRate); err != nil {
		return err
	}
	if err := check("HostAllocFailRate", c.HostAllocFailRate); err != nil {
		return err
	}
	switch {
	case c.BufferDropRetries < 0:
		return fmt.Errorf("faultinject: BufferDropRetries = %d, need >= 0", c.BufferDropRetries)
	case c.MigrateMaxRetries < 0:
		return fmt.Errorf("faultinject: MigrateMaxRetries = %d, need >= 0", c.MigrateMaxRetries)
	case c.HostAllocMaxRetries < 0:
		return fmt.Errorf("faultinject: HostAllocMaxRetries = %d, need >= 0", c.HostAllocMaxRetries)
	case c.BufferRetryDelay < 0:
		return fmt.Errorf("faultinject: BufferRetryDelay = %d, need >= 0", c.BufferRetryDelay)
	case c.MigrateBackoff < 0:
		return fmt.Errorf("faultinject: MigrateBackoff = %d, need >= 0", c.MigrateBackoff)
	}
	return nil
}

// Category identifies one injection category in the counter API.
type Category uint8

const (
	// BufferDrop is the fault-buffer record drop category.
	BufferDrop Category = iota
	// Migrate is the transient DMA/migration failure category.
	Migrate
	// HostAlloc is the host-OS allocation failure category.
	HostAlloc
	numCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case BufferDrop:
		return "buffer-drop"
	case Migrate:
		return "migrate"
	case HostAlloc:
		return "host-alloc"
	}
	return "unknown"
}

// Counters aggregates one category's injection outcomes.
type Counters struct {
	// Injected counts faults injected (individual failed attempts).
	Injected uint64
	// Retried counts retry attempts performed after an injection.
	Retried uint64
	// Recovered counts operations that eventually succeeded after at
	// least one injected failure.
	Recovered uint64
	// Unrecovered counts operations that exhausted their retry budget.
	Unrecovered uint64
}

// Stats is the full per-category counter set.
type Stats struct {
	BufferDrop Counters
	Migrate    Counters
	HostAlloc  Counters
}

// Of returns the counters of one category.
func (s Stats) Of(c Category) Counters {
	switch c {
	case BufferDrop:
		return s.BufferDrop
	case Migrate:
		return s.Migrate
	case HostAlloc:
		return s.HostAlloc
	}
	return Counters{}
}

// counterCell is the internal atomic representation of one category's
// counters. The RNG-drawing decision methods stay simulation-goroutine
// only (they consume a deterministic stream), but outcome reporting
// (Note*) and reading (Stats) arrive from worker pools — the parallel
// experiment harness and the sweepd service layer — so the counters
// themselves must be safe under concurrent access.
type counterCell struct {
	injected, retried, recovered, unrecovered atomic.Uint64
}

// load materializes the exported plain-value view.
func (c *counterCell) load() Counters {
	return Counters{
		Injected:    c.injected.Load(),
		Retried:     c.retried.Load(),
		Recovered:   c.recovered.Load(),
		Unrecovered: c.unrecovered.Load(),
	}
}

// Injector draws injection decisions from seeded per-category RNG streams
// and accounts their outcomes. All methods are nil-receiver safe: a nil
// Injector never injects and counts nothing. The decision methods
// (ShouldDropFault, HostAllocFails, MigrateFailures) consume per-category
// RNG streams and must stay on the simulation goroutine; the Note*
// reporters and Stats are safe from any goroutine.
type Injector struct {
	cfg      Config
	rng      [numCategories]*sim.RNG
	counters [numCategories]counterCell
}

// New builds an injector. The returned injector is inert (but non-nil)
// when no rate is set, so wiring it unconditionally costs nothing.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg}
	in.rng[BufferDrop] = sim.NewRNG(cfg.Seed ^ saltBufferDrop)
	in.rng[Migrate] = sim.NewRNG(cfg.Seed ^ saltMigrate)
	in.rng[HostAlloc] = sim.NewRNG(cfg.Seed ^ saltHostAlloc)
	return in, nil
}

// Config returns the injector's configuration (zero value on nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Enabled reports whether any category can inject.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Enabled() }

// Stats returns a copy of the per-category counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		BufferDrop: in.counters[BufferDrop].load(),
		Migrate:    in.counters[Migrate].load(),
		HostAlloc:  in.counters[HostAlloc].load(),
	}
}

// ShouldDropFault decides whether the next fault-buffer write is dropped,
// counting an injection when it is. Zero-rate configurations perform no
// RNG draw, keeping the stream untouched.
func (in *Injector) ShouldDropFault() bool {
	if in == nil || in.cfg.BufferDropRate <= 0 {
		return false
	}
	if in.rng[BufferDrop].Float64() < in.cfg.BufferDropRate {
		in.counters[BufferDrop].injected.Add(1)
		return true
	}
	return false
}

// BufferRetryBudget returns the re-emission budget for a dropped record.
func (in *Injector) BufferRetryBudget() int {
	if in == nil {
		return 0
	}
	return in.cfg.BufferDropRetries
}

// BufferRetryDelay returns the delay before one re-emission attempt.
func (in *Injector) BufferRetryDelay() sim.Time {
	if in == nil {
		return 0
	}
	return in.cfg.BufferRetryDelay
}

// HostAllocFails decides whether one host allocation attempt fails,
// counting an injection when it does.
func (in *Injector) HostAllocFails() bool {
	if in == nil || in.cfg.HostAllocFailRate <= 0 {
		return false
	}
	if in.rng[HostAlloc].Float64() < in.cfg.HostAllocFailRate {
		in.counters[HostAlloc].injected.Add(1)
		return true
	}
	return false
}

// HostAllocRetryBudget returns the degrade-and-retry budget per request.
func (in *Injector) HostAllocRetryBudget() int {
	if in == nil {
		return 0
	}
	return in.cfg.HostAllocMaxRetries
}

// MigrateFailures draws one migration's injected-failure plan: how many
// transfer attempts fail before one succeeds, and whether the whole
// retry budget was exhausted (fatal). All Migrate-category accounting
// happens here.
func (in *Injector) MigrateFailures() (failures int, fatal bool) {
	if in == nil || in.cfg.MigrateFailRate <= 0 {
		return 0, false
	}
	for attempt := 0; attempt <= in.cfg.MigrateMaxRetries; attempt++ {
		if in.rng[Migrate].Float64() >= in.cfg.MigrateFailRate {
			if failures > 0 {
				in.counters[Migrate].recovered.Add(1)
			}
			return failures, false
		}
		in.counters[Migrate].injected.Add(1)
		failures++
		if attempt < in.cfg.MigrateMaxRetries {
			in.counters[Migrate].retried.Add(1)
		}
	}
	in.counters[Migrate].unrecovered.Add(1)
	return failures, true
}

// MigrateBackoffFor returns the exponential virtual-time backoff charged
// before retry i (0-based): MigrateBackoff << i.
func (in *Injector) MigrateBackoffFor(i int) sim.Time {
	if in == nil {
		return 0
	}
	return in.cfg.MigrateBackoff << uint(i)
}

// NoteRetried counts one retry attempt in category c. BufferDrop and
// HostAlloc retries are driven by the device and driver respectively, so
// those layers report the outcomes; Migrate accounts internally in
// MigrateFailures. Safe from any goroutine.
func (in *Injector) NoteRetried(c Category) {
	if in != nil {
		in.counters[c].retried.Add(1)
	}
}

// NoteRecovered counts one operation that succeeded after injection.
// Safe from any goroutine.
func (in *Injector) NoteRecovered(c Category) {
	if in != nil {
		in.counters[c].recovered.Add(1)
	}
}

// NoteUnrecovered counts one operation that exhausted its retry budget.
// Safe from any goroutine.
func (in *Injector) NoteUnrecovered(c Category) {
	if in != nil {
		in.counters[c].unrecovered.Add(1)
	}
}
