// Package faultinject is the simulator's seeded, deterministic
// fault-injection subsystem. It lets experiments controllably stress the
// degradation behaviours the paper studies only at their onset —
// fault-buffer pressure, migration stalls, host memory exhaustion — and
// the degraded platform the paper's client-server driver (§2.1) assumes
// away: a link that slows down or flaps, a device that dies mid-run. It
// turns failure scenarios into first-class, regression-testable
// experiments: the same seed and the same configuration always produce
// the same injected faults, the same retries and the same telemetry.
//
// One Config, one Seed and one Injector cover four categories:
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
//   - LinkTransfer: a transfer operation on a flapping link is dropped
//     after carrying its bytes; the driver re-carries it with backoff.
//
// The three software categories each draw from their own sequential RNG
// stream derived from the seed, so enabling one never perturbs another's
// draw sequence. The hardware draws — link health per (link, epoch),
// flap drops per (link, op sequence number) — are stateless hashes keyed
// by identity, so they are reproducible no matter when or how often they
// are asked: sim time is cut into fixed-length epochs and each (link,
// epoch) pair gets its own verdict. A hardware regime (link degradation,
// flapping or a scheduled device death) is configured separately from
// the software rates; without one the link and driver take their
// fault-free paths, bit for bit.
//
// A nil *Injector is valid and injects nothing, so model code can hold an
// optional injector without guarding every call site.
package faultinject

import (
	"fmt"
	"math"
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

	saltLinkDegrade = 0xc2b2ae3d27d4eb4f
	saltLinkFlap    = 0x165667b19e3779f9
	saltLinkDrop    = 0x27d4eb2f165667c5
)

// Config holds the injection knobs. The zero value (all rates zero, no
// kill scheduled) disables injection entirely: no RNG draws happen and
// the simulation is bit-identical to one without an injector.
type Config struct {
	// Seed derives every category's deterministic RNG stream and every
	// hardware draw; hardware draws also fold in the link ID and the
	// epoch (or op sequence) they apply to.
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

	// EpochLength is the virtual-time length of one link-health epoch.
	// Each link redraws its health state at every epoch boundary.
	EpochLength sim.Time

	// LinkDegradeRate is the probability in [0, 1] that a (link, epoch)
	// pair runs at degraded bandwidth.
	LinkDegradeRate float64
	// DegradedBandwidthFactor multiplies the link bandwidth during a
	// degraded epoch (0 < factor <= 1; the paper-testbed default models
	// a throttled x4 lane at 0.25).
	DegradedBandwidthFactor float64

	// LinkFlapRate is the probability in [0, 1] that a (link, epoch)
	// pair is flapping: transfers run at full bandwidth but each
	// operation may be dropped after carrying its bytes.
	LinkFlapRate float64
	// FlapDropRate is the probability in [0, 1] that one transfer
	// operation fails during a flapping epoch.
	FlapDropRate float64

	// LinkRetryLimit bounds the driver's transfer retries after a flap
	// drop; exhausting it is a fatal link failure.
	LinkRetryLimit int
	// LinkRetryBackoff is the virtual-time backoff charged before the
	// first retry; it doubles on every further attempt.
	LinkRetryBackoff sim.Time

	// KillDevice is the index of the device to kill when KillBatch
	// fires (0 in single-device systems).
	KillDevice int
	// KillBatch kills the device after it completes this many fault
	// batches (a 1-based count, so 1 kills after the first batch);
	// zero disables device death.
	KillBatch int
}

// DefaultConfig returns an inert configuration (all rates zero, no
// kill) with sensible retry budgets, delays, epoch and degraded factor,
// so callers only need to raise the rate of the category or regime they
// want to stress.
func DefaultConfig() Config {
	return Config{
		Seed:                    1,
		BufferDropRetries:       3,
		BufferRetryDelay:        5 * sim.Microsecond,
		MigrateMaxRetries:       4,
		MigrateBackoff:          10 * sim.Microsecond,
		HostAllocMaxRetries:     6,
		EpochLength:             100 * sim.Microsecond,
		DegradedBandwidthFactor: 0.25,
		FlapDropRate:            0.5,
		LinkRetryLimit:          6,
		LinkRetryBackoff:        5 * sim.Microsecond,
	}
}

// SoftwareEnabled reports whether any software category (BufferDrop,
// Migrate, HostAlloc) can inject.
func (c Config) SoftwareEnabled() bool {
	return c.BufferDropRate > 0 || c.MigrateFailRate > 0 || c.HostAllocFailRate > 0
}

// HardwareEnabled reports whether a hardware regime is configured: link
// degradation, link flapping or a scheduled device death.
func (c Config) HardwareEnabled() bool {
	return c.LinkDegradeRate > 0 || c.LinkFlapRate > 0 || c.KillBatch > 0
}

// Validate checks the configuration for values injection cannot run with.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"BufferDropRate", c.BufferDropRate},
		{"MigrateFailRate", c.MigrateFailRate},
		{"HostAllocFailRate", c.HostAllocFailRate},
		{"LinkDegradeRate", c.LinkDegradeRate},
		{"LinkFlapRate", c.LinkFlapRate},
		{"FlapDropRate", c.FlapDropRate},
	} {
		if math.IsNaN(r.rate) || r.rate < 0 || r.rate > 1 {
			return fmt.Errorf("faultinject: %s = %v, need in [0, 1]", r.name, r.rate)
		}
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
	case (c.LinkDegradeRate > 0 || c.LinkFlapRate > 0) && c.EpochLength <= 0:
		return fmt.Errorf("faultinject: EpochLength = %v, need > 0 with link fault rates set", c.EpochLength)
	case c.LinkDegradeRate > 0 &&
		(math.IsNaN(c.DegradedBandwidthFactor) || c.DegradedBandwidthFactor <= 0 || c.DegradedBandwidthFactor > 1):
		return fmt.Errorf("faultinject: DegradedBandwidthFactor = %v, need in (0, 1]", c.DegradedBandwidthFactor)
	case c.LinkRetryLimit < 0:
		return fmt.Errorf("faultinject: LinkRetryLimit = %d, need >= 0", c.LinkRetryLimit)
	case c.LinkRetryBackoff < 0:
		return fmt.Errorf("faultinject: LinkRetryBackoff = %v, need >= 0", c.LinkRetryBackoff)
	case c.KillDevice < 0:
		return fmt.Errorf("faultinject: KillDevice = %d, need >= 0", c.KillDevice)
	case c.KillBatch < 0:
		return fmt.Errorf("faultinject: KillBatch = %d, need >= 0 (0 disables)", c.KillBatch)
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
	// LinkTransfer is the flap-dropped link transfer category. It has no
	// stream of its own: its drops are stateless per-operation hashes.
	LinkTransfer
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
	case LinkTransfer:
		return "link-transfer"
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

// Stats is the full per-category counter set, plus the device deaths
// the kill schedule caused.
type Stats struct {
	BufferDrop    Counters
	Migrate       Counters
	HostAlloc     Counters
	LinkTransfer  Counters
	DevicesKilled uint64
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
	case LinkTransfer:
		return s.LinkTransfer
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

// Injector draws injection decisions and accounts their outcomes. All
// methods are nil-receiver safe: a nil Injector never injects and counts
// nothing. The software decision methods (ShouldDropFault,
// HostAllocFails, MigrateFailures) consume per-category RNG streams and
// must stay on the simulation goroutine; the hardware draws are
// stateless, so they are safe to call in any order and any number of
// times; the Note* reporters and Stats are safe from any goroutine.
type Injector struct {
	cfg Config
	// rng holds one sequential stream per software category (the
	// categories before LinkTransfer).
	rng      [LinkTransfer]*sim.RNG
	counters [numCategories]counterCell
	killed   atomic.Uint64
}

// New builds an injector. The returned injector is inert (but non-nil)
// when no rate is set and no kill is scheduled, so wiring it
// unconditionally costs nothing.
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

// Hardware reports whether a hardware regime is configured. It is the
// one gate for the fallible link path, the kill schedule, the hardware
// digest fields and the hardware metrics.
func (in *Injector) Hardware() bool { return in != nil && in.cfg.HardwareEnabled() }

// Stats returns a copy of the per-category counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		BufferDrop:    in.counters[BufferDrop].load(),
		Migrate:       in.counters[Migrate].load(),
		HostAlloc:     in.counters[HostAlloc].load(),
		LinkTransfer:  in.counters[LinkTransfer].load(),
		DevicesKilled: in.killed.Load(),
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

// NoteRetried counts one retry attempt in category c. BufferDrop retries
// are driven by the device, HostAlloc and LinkTransfer retries by the
// driver, so those layers report the outcomes; Migrate accounts
// internally in MigrateFailures. Safe from any goroutine.
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

// NoteDeviceKilled counts one device death. Safe from any goroutine.
func (in *Injector) NoteDeviceKilled() {
	if in != nil {
		in.killed.Add(1)
	}
}

// EpochOf maps a virtual time to its health epoch (0 when epochs are
// not configured).
func (in *Injector) EpochOf(now sim.Time) int64 {
	if in == nil || in.cfg.EpochLength <= 0 {
		return 0
	}
	return int64(now / in.cfg.EpochLength)
}

// hwKey folds a link ID and an epoch (or op sequence) into one decision
// key; distinct odd multipliers keep nearby identities decorrelated.
func hwKey(link int, n int64) uint64 {
	return (uint64(link)+1)*0x9e3779b97f4a7c15 ^ (uint64(n)+1)*0xbf58476d1ce4e5b9
}

// LinkEpochDraws returns the health verdicts for one (link, epoch)
// pair: whether the epoch is degraded and whether it is flapping. Both
// can be true; the link model gives flapping precedence. Zero-rate
// regimes perform no draw.
func (in *Injector) LinkEpochDraws(link int, epoch int64) (degraded, flapping bool) {
	if in == nil {
		return false, false
	}
	key := hwKey(link, epoch)
	if in.cfg.LinkDegradeRate > 0 {
		degraded = draw(in.cfg.Seed^saltLinkDegrade, key, 0) < in.cfg.LinkDegradeRate
	}
	if in.cfg.LinkFlapRate > 0 {
		flapping = draw(in.cfg.Seed^saltLinkFlap, key, 0) < in.cfg.LinkFlapRate
	}
	return degraded, flapping
}

// TransferDrops decides whether one transfer operation on a flapping
// link fails, counting a LinkTransfer injection when it does. Keyed by
// the link's per-operation sequence number, which deterministic event
// ordering makes reproducible.
func (in *Injector) TransferDrops(link int, opSeq uint64) bool {
	if in == nil || in.cfg.FlapDropRate <= 0 {
		return false
	}
	if draw(in.cfg.Seed^saltLinkDrop, hwKey(link, int64(opSeq)), 0) < in.cfg.FlapDropRate {
		in.counters[LinkTransfer].injected.Add(1)
		return true
	}
	return false
}

// DegradedFactor returns the bandwidth multiplier for degraded epochs.
func (in *Injector) DegradedFactor() float64 {
	if in == nil || in.cfg.DegradedBandwidthFactor <= 0 {
		return 1
	}
	return in.cfg.DegradedBandwidthFactor
}

// LinkRetryLimit returns the transfer retry budget after a flap drop.
func (in *Injector) LinkRetryLimit() int {
	if in == nil {
		return 0
	}
	return in.cfg.LinkRetryLimit
}

// LinkBackoffFor returns the exponential virtual-time backoff charged
// before link retry i (0-based): LinkRetryBackoff << i.
func (in *Injector) LinkBackoffFor(i int) sim.Time {
	if in == nil {
		return 0
	}
	return in.cfg.LinkRetryBackoff << uint(i)
}

// EpochHealthCounts replays the health schedule of one link up to (and
// including) the epoch containing now, returning how many epochs were
// healthy, degraded, and flapping. The draws are stateless, so this is
// a pure function of (seed, link, now) — observability gauges call it
// at sample points without perturbing any stream.
func (in *Injector) EpochHealthCounts(link int, now sim.Time) (healthy, degraded, flapping int64) {
	if in == nil || in.cfg.EpochLength <= 0 {
		return 0, 0, 0
	}
	last := in.EpochOf(now)
	for e := int64(0); e <= last; e++ {
		deg, flap := in.LinkEpochDraws(link, e)
		switch {
		case flap:
			flapping++
		case deg:
			degraded++
		default:
			healthy++
		}
	}
	return healthy, degraded, flapping
}
