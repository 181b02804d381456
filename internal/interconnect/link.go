// Package interconnect models the host-device link (PCIe on the paper's
// testbed) and the GPU copy engines that move pages across it. Transfers
// are charged per-DMA-operation latency plus bandwidth time; contiguous
// pages coalesce into single operations, as the real driver arranges.
//
// With an injector that configures a hardware regime attached
// (SetInjector), the link also models degraded-mode operation: a seeded,
// sim-time epoch schedule puts the link in one of four health states —
// healthy, degraded-bandwidth (transfers slow down), flapping
// (operations can drop after carrying their bytes), or dead (a killed
// device's link refuses all traffic). Without a hardware regime the link
// behaves, bit for bit, exactly as it always has.
package interconnect

import (
	"errors"
	"fmt"
	"math"

	"guvm/internal/digest"
	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// Config describes a link and its copy engines.
type Config struct {
	// BandwidthBytesPerSec is the sustained link bandwidth. The paper's
	// Titan V is PCIe 3.0 x16 (~12 GB/s effective).
	BandwidthBytesPerSec float64
	// OpLatency is the fixed setup latency per DMA operation.
	OpLatency sim.Time
	// CopyEngines is the number of hardware copy engines; the driver
	// model issues one VABlock's transfer per engine command.
	CopyEngines int
}

// DefaultPCIe3x16 returns the paper-testbed link profile.
func DefaultPCIe3x16() Config {
	return Config{
		BandwidthBytesPerSec: 12e9,
		OpLatency:            1 * sim.Microsecond,
		CopyEngines:          4,
	}
}

// Validate checks the configuration for values the cost model cannot
// run with: a zero, negative or non-finite bandwidth divides by zero or
// overflows the virtual clock, and the latency and engine count must be
// physical.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.BandwidthBytesPerSec) || math.IsInf(c.BandwidthBytesPerSec, 0):
		return fmt.Errorf("interconnect: BandwidthBytesPerSec = %v, need finite", c.BandwidthBytesPerSec)
	case c.BandwidthBytesPerSec <= 0:
		return fmt.Errorf("interconnect: BandwidthBytesPerSec = %v, need > 0", c.BandwidthBytesPerSec)
	case c.OpLatency < 0:
		return fmt.Errorf("interconnect: OpLatency = %v, need >= 0", c.OpLatency)
	case c.CopyEngines < 1:
		return fmt.Errorf("interconnect: CopyEngines = %d, need >= 1", c.CopyEngines)
	}
	return nil
}

// Health is a link's current fault-domain state.
type Health uint8

const (
	// Healthy: full bandwidth, no drops.
	Healthy Health = iota
	// Degraded: transfers run at the injector's reduced bandwidth
	// factor.
	Degraded
	// Flapping: full bandwidth, but each operation may drop after
	// carrying its bytes (the caller retries).
	Flapping
	// Dead: the device behind the link was killed; all traffic is
	// refused.
	Dead
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Flapping:
		return "flapping"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// ErrLinkDown is returned by AttemptSpans on a dead link: the transfer
// was refused and no cost accrued.
var ErrLinkDown = errors.New("interconnect: link down")

// ErrLinkFlapped is returned by AttemptSpans when a flapping link
// dropped the operation. The bytes were carried (and charged) before
// the drop, as on a real link whose completion was lost; the caller
// retries with backoff.
var ErrLinkFlapped = errors.New("interconnect: transfer dropped by flapping link")

// Stats accumulates transfer accounting.
type Stats struct {
	Ops          int
	BytesToGPU   uint64
	BytesToHost  uint64
	TransferTime sim.Time
	// DegradedOps counts operations carried during degraded epochs;
	// FlapDrops counts operations dropped by a flapping link. Both stay
	// zero without a hardware regime.
	DegradedOps int
	FlapDrops   int
}

// Link computes virtual-time costs for data movement. The driver model
// executes transfers synchronously within batch servicing (the paper shows
// the driver waits for copies before replay), so Link only needs cost
// arithmetic, not queueing.
type Link struct {
	cfg   Config
	stats Stats

	// Hardware regime (nil inj in the default, always-healthy wiring):
	// inj draws the health schedule, id names this link in the draws,
	// now reads the virtual clock for epoch lookup.
	inj *faultinject.Injector
	id  int
	now func() sim.Time
	// dead latches after Kill; opSeq sequences AttemptSpans operations
	// for per-op flap draws.
	dead  bool
	opSeq uint64
}

// NewLink returns a link with the given configuration. An invalid
// configuration panics: the simulation would divide by zero.
func NewLink(cfg Config) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Link{cfg: cfg}
}

// SetInjector attaches the system's fault injector: when it configures a
// hardware regime, it draws this link's health schedule under identity
// id, and now supplies the virtual clock. An injector without one leaves
// the link always healthy.
func (l *Link) SetInjector(in *faultinject.Injector, id int, now func() sim.Time) {
	if !in.Hardware() {
		return
	}
	l.inj = in
	l.id = id
	l.now = now
}

// Kill marks the link dead (its device was killed); every later
// AttemptSpans fails with ErrLinkDown.
func (l *Link) Kill() { l.dead = true }

// Dead reports whether the link was killed.
func (l *Link) Dead() bool { return l.dead }

// Health returns the link's current fault-domain state. Without a
// hardware regime the link is always healthy; with one, the state is a
// stateless per-(link, epoch) draw, so querying it never perturbs any
// stream. Flapping takes precedence over degraded when an epoch draws
// both.
func (l *Link) Health() Health {
	if l.dead {
		return Dead
	}
	if l.inj == nil {
		return Healthy
	}
	degraded, flapping := l.inj.LinkEpochDraws(l.id, l.inj.EpochOf(l.now()))
	switch {
	case flapping:
		return Flapping
	case degraded:
		return Degraded
	}
	return Healthy
}

// Stats returns a copy of the accumulated transfer statistics.
func (l *Link) Stats() Stats { return l.stats }

// Digest returns the FNV-1a digest of the canonical link state. The
// hardware fields are folded in only under a hardware regime, so
// default-wiring digests are unchanged from the pre-fault-domain model.
func (l *Link) Digest() uint64 {
	h := digest.New()
	h = h.Int(l.stats.Ops)
	h = h.Uint64(l.stats.BytesToGPU).Uint64(l.stats.BytesToHost)
	h = h.Int64(int64(l.stats.TransferTime))
	if l.inj != nil {
		h = h.Int(l.stats.DegradedOps).Int(l.stats.FlapDrops)
		h = h.Uint64(l.opSeq).Bool(l.dead)
	}
	return h.Sum()
}

// Dump renders the link state for divergence diagnostics: the stats are
// the whole state, since the link is a pure cost model.
func (s Stats) Dump() string {
	out := fmt.Sprintf("link: %d ops, %d B to GPU, %d B to host, %v busy\n",
		s.Ops, s.BytesToGPU, s.BytesToHost, s.TransferTime)
	if s.DegradedOps > 0 || s.FlapDrops > 0 {
		out += fmt.Sprintf("link-hw: %d degraded ops, %d flap drops\n", s.DegradedOps, s.FlapDrops)
	}
	return out
}

// bytesTimeAt converts a byte count to pure bandwidth time under the
// given health state (degraded epochs run at the reduced factor).
func (l *Link) bytesTimeAt(bytes uint64, h Health) sim.Time {
	bw := l.cfg.BandwidthBytesPerSec
	if h == Degraded {
		bw *= l.inj.DegradedFactor()
	}
	return sim.Time(float64(bytes) / bw * float64(sim.Second))
}

// carrySpans charges the spans at the given health state and accounts
// the bytes. The carry itself never fails — drop decisions are layered
// on top by AttemptSpans.
func (l *Link) carrySpans(spans []mem.Span, toGPU bool, h Health) sim.Time {
	var total sim.Time
	var bytes uint64
	for _, s := range spans {
		total += l.cfg.OpLatency + l.bytesTimeAt(s.Bytes(), h)
		bytes += s.Bytes()
	}
	l.stats.Ops += len(spans)
	if h == Degraded {
		l.stats.DegradedOps += len(spans)
	}
	if toGPU {
		l.stats.BytesToGPU += bytes
	} else {
		l.stats.BytesToHost += bytes
	}
	l.stats.TransferTime += total
	return total
}

// TransferSpans charges a host→GPU (toGPU=true) or GPU→host migration of
// the given page spans and returns its cost. Each span is one DMA
// operation: per-op latency plus bandwidth time (reduced during
// degraded epochs). The transfer always completes — it is the
// guaranteed-delivery path, used for default wiring and for emergency
// drains such as dead-device page re-homing.
func (l *Link) TransferSpans(spans []mem.Span, toGPU bool) sim.Time {
	h := l.Health()
	if h == Dead || h == Flapping {
		// Guaranteed delivery ignores drop regimes: carry at full
		// bandwidth.
		h = Healthy
	}
	return l.carrySpans(spans, toGPU, h)
}

// AttemptSpans is the fallible transfer path: a dead link refuses the
// operation outright (no cost), and a flapping link carries the bytes —
// charging the full cost — but may then drop the operation, returning
// ErrLinkFlapped for the caller to retry. Healthy and degraded epochs
// behave like TransferSpans.
func (l *Link) AttemptSpans(spans []mem.Span, toGPU bool) (sim.Time, error) {
	if l.dead {
		return 0, ErrLinkDown
	}
	h := l.Health()
	cost := l.carrySpans(spans, toGPU, h)
	if h == Flapping {
		l.opSeq++
		if l.inj.TransferDrops(l.id, l.opSeq) {
			l.stats.FlapDrops++
			return cost, ErrLinkFlapped
		}
	}
	return cost, nil
}

// TransferBytes charges one contiguous bulk copy (the explicit
// cudaMemcpy-style baseline in Figure 1).
func (l *Link) TransferBytes(bytes uint64, toGPU bool) sim.Time {
	h := l.Health()
	if h == Dead || h == Flapping {
		h = Healthy
	}
	cost := l.cfg.OpLatency + l.bytesTimeAt(bytes, h)
	l.stats.Ops++
	if h == Degraded {
		l.stats.DegradedOps++
	}
	if toGPU {
		l.stats.BytesToGPU += bytes
	} else {
		l.stats.BytesToHost += bytes
	}
	l.stats.TransferTime += cost
	return cost
}
