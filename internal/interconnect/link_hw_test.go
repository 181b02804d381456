package interconnect

import (
	"errors"
	"math"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestNewLinkValidationEdgeCases(t *testing.T) {
	for _, cfg := range []Config{
		{BandwidthBytesPerSec: math.NaN(), OpLatency: 0, CopyEngines: 1},
		{BandwidthBytesPerSec: math.Inf(1), OpLatency: 0, CopyEngines: 1},
		{BandwidthBytesPerSec: math.Inf(-1), OpLatency: 0, CopyEngines: 1},
		{BandwidthBytesPerSec: 1e9, OpLatency: -1, CopyEngines: 1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%+v) did not panic", cfg)
				}
			}()
			NewLink(cfg)
		}()
	}
	good := DefaultPCIe3x16()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// hwLink builds a link wired to an injector and a settable clock.
func hwLink(t *testing.T, cfg faultinject.Config) (*Link, *sim.Time) {
	t.Helper()
	in, err := faultinject.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := new(sim.Time)
	l := NewLink(DefaultPCIe3x16())
	l.SetInjector(in, 0, func() sim.Time { return *now })
	return l, now
}

// findEpoch scans for an epoch whose health matches want, and positions
// the clock inside it.
func findEpoch(t *testing.T, l *Link, now *sim.Time, epochLen sim.Time, want Health) {
	t.Helper()
	for e := sim.Time(0); e < 10_000; e++ {
		*now = e * epochLen
		if l.Health() == want {
			return
		}
	}
	t.Fatalf("no %v epoch in 10000 draws", want)
}

// Degraded epochs must slow the link: the same spans cost strictly more
// than on a healthy epoch, and monotonically more for more bytes.
func TestDegradedBandwidthCost(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkDegradeRate = 0.5
	l, now := hwLink(t, cfg)

	spans := []mem.Span{{First: 0, Count: 64}}
	findEpoch(t, l, now, cfg.EpochLength, Healthy)
	healthy := l.TransferSpans(spans, true)
	findEpoch(t, l, now, cfg.EpochLength, Degraded)
	degraded := l.TransferSpans(spans, true)
	if degraded <= healthy {
		t.Fatalf("degraded cost %d <= healthy cost %d", degraded, healthy)
	}
	// Factor 0.25 → bandwidth time ×4 (plus unchanged op latency).
	more := l.TransferSpans([]mem.Span{{First: 0, Count: 128}}, true)
	if more <= degraded {
		t.Fatalf("degraded cost not monotone in bytes: %d <= %d", more, degraded)
	}
	if l.Stats().DegradedOps != 2 {
		t.Fatalf("DegradedOps = %d, want 2", l.Stats().DegradedOps)
	}
}

// A dead link refuses AttemptSpans at no cost but still carries the
// guaranteed path (re-homing uses it).
func TestDeadLinkRefusesAttempts(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkFlapRate = 0.5 // any enabled regime
	l, _ := hwLink(t, cfg)
	l.Kill()
	if !l.Dead() || l.Health() != Dead {
		t.Fatalf("health = %v after Kill", l.Health())
	}
	cost, err := l.AttemptSpans([]mem.Span{{First: 0, Count: 4}}, true)
	if !errors.Is(err, ErrLinkDown) || cost != 0 {
		t.Fatalf("AttemptSpans on dead link = (%d, %v), want (0, ErrLinkDown)", cost, err)
	}
	if l.Stats().Ops != 0 {
		t.Fatalf("refused attempt accrued %d ops", l.Stats().Ops)
	}
	drain := l.TransferSpans([]mem.Span{{First: 0, Count: 4}}, false)
	if drain <= 0 {
		t.Fatal("guaranteed drain on dead link cost nothing")
	}
	if st := l.Stats(); st.BytesToHost != 4*mem.PageSize {
		t.Fatalf("drain bytes not accounted: %+v", st)
	}
}

// A flapping link with drop rate 1 charges the bytes, then fails.
func TestFlappingLinkDropsAfterCharging(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkFlapRate = 1
	cfg.FlapDropRate = 1
	l, _ := hwLink(t, cfg)
	if l.Health() != Flapping {
		t.Fatalf("health = %v, want flapping", l.Health())
	}
	cost, err := l.AttemptSpans([]mem.Span{{First: 0, Count: 8}}, true)
	if !errors.Is(err, ErrLinkFlapped) {
		t.Fatalf("err = %v, want ErrLinkFlapped", err)
	}
	if cost <= 0 {
		t.Fatal("dropped attempt cost nothing — bytes must be charged before the drop")
	}
	st := l.Stats()
	if st.FlapDrops != 1 || st.BytesToGPU != 8*mem.PageSize {
		t.Fatalf("stats = %+v", st)
	}
	// The guaranteed path on the same link never drops.
	if c := l.TransferSpans([]mem.Span{{First: 0, Count: 8}}, true); c <= 0 {
		t.Fatal("guaranteed transfer on flapping link failed")
	}
}

// Flapping takes precedence over degraded when an epoch draws both.
func TestFlapPrecedesDegraded(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkDegradeRate = 1
	cfg.LinkFlapRate = 1
	l, _ := hwLink(t, cfg)
	if l.Health() != Flapping {
		t.Fatalf("health = %v, want flapping over degraded", l.Health())
	}
}

// Digest must be stable across pure health-state transitions (no
// transfers), and must change once hw-visible activity differs.
func TestLinkDigestAcrossHealthTransitions(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkDegradeRate = 0.5
	l, now := hwLink(t, cfg)
	d0 := l.Digest()
	for e := sim.Time(0); e < 50; e++ {
		*now = e * cfg.EpochLength
		_ = l.Health()
		if got := l.Digest(); got != d0 {
			t.Fatalf("digest changed (%#x -> %#x) from health queries alone at epoch %d", d0, got, e)
		}
	}
	findEpoch(t, l, now, cfg.EpochLength, Degraded)
	l.TransferSpans([]mem.Span{{First: 0, Count: 1}}, true)
	if l.Digest() == d0 {
		t.Fatal("digest unchanged after a degraded transfer")
	}
}

// Two identically-seeded links replay identical schedules and digests;
// a link given an injector without a hardware regime digests exactly
// like the historical model after the same traffic.
func TestLinkDigestDeterminismAndGating(t *testing.T) {
	cfg := faultinject.DefaultConfig()
	cfg.LinkFlapRate = 0.3
	cfg.FlapDropRate = 0.5
	run := func() uint64 {
		l, now := hwLink(t, cfg)
		for e := sim.Time(0); e < 40; e++ {
			*now = e * cfg.EpochLength
			l.AttemptSpans([]mem.Span{{First: 0, Count: 4}}, true)
		}
		return l.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed link digests differ: %#x != %#x", a, b)
	}

	plain := NewLink(DefaultPCIe3x16())
	wired, _ := hwLink(t, faultinject.DefaultConfig()) // inert rates
	spans := []mem.Span{{First: 0, Count: 16}}
	cp := plain.TransferSpans(spans, true)
	cw := wired.TransferSpans(spans, true)
	if cp != cw {
		t.Fatalf("inert injector changed transfer cost: %d != %d", cw, cp)
	}
	// Without a hardware regime the injector does not attach, so both
	// keep the historical digest layout (gating is on the regime, not
	// traffic).
	if plain.Stats() != wired.Stats() {
		t.Fatalf("stats diverged: %+v != %+v", plain.Stats(), wired.Stats())
	}
	if plain.Digest() != wired.Digest() {
		t.Fatalf("inert injector changed the digest: %#x != %#x", wired.Digest(), plain.Digest())
	}
}
