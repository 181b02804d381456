package uvm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/sim"
)

// newBareDriver builds a driver with no device attached: enough to read
// the policies and knobs NewDriver resolved.
func newBareDriver(t *testing.T, cfg Config, pol PolicySelection) *Driver {
	t.Helper()
	d, err := NewDriver(cfg, pol, sim.NewEngine(), hostos.NewVM(hostos.DefaultCostModel()),
		interconnect.NewLink(interconnect.DefaultPCIe3x16()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// prefetchNameCases is every prefetch name, the empty-name alias
// included, against PrefetchEnabled: a named policy ignores the field,
// and the empty name selects "tree" when it is true and "off" when it is
// false.
var prefetchNameCases = []struct {
	name      string
	enabled   bool
	wantTree  bool
	wantScope int
}{
	{"", true, true, 0},
	{"", false, false, 0},
	{"tree", true, true, 0},
	{"tree", false, true, 0},
	{"off", true, false, 0},
	{"off", false, false, 0},
	{"cross-block", true, true, 2},
	{"cross-block", false, true, 2},
}

// TestPrefetchPolicyKnobs pins what each prefetch name resolves to: its
// planner and cross-block scope.
func TestPrefetchPolicyKnobs(t *testing.T) {
	for _, c := range prefetchNameCases {
		t.Run(fmt.Sprintf("%q/enabled=%v", c.name, c.enabled), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PrefetchEnabled = c.enabled
			d := newBareDriver(t, cfg, PolicySelection{Prefetch: c.name})
			if _, tree := d.prefetch.planner.(treePlanner); tree != c.wantTree {
				t.Errorf("planner %T, want tree=%v", d.prefetch.planner, c.wantTree)
			}
			if d.prefetch.scope != c.wantScope {
				t.Errorf("cross-block scope %d, want %d", d.prefetch.scope, c.wantScope)
			}
		})
	}
}

// TestPrefetchThresholdValidated checks that NewDriver rejects a
// PrefetchThreshold outside (0, 1] exactly when the resolved planner is
// the tree, whatever PrefetchEnabled says; the off planner never reads
// the threshold.
func TestPrefetchThresholdValidated(t *testing.T) {
	for _, c := range prefetchNameCases {
		t.Run(fmt.Sprintf("%q/enabled=%v", c.name, c.enabled), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PrefetchEnabled = c.enabled
			for _, th := range []float64{0, 1.5} {
				cfg.PrefetchThreshold = th
				_, err := NewDriver(cfg, PolicySelection{Prefetch: c.name}, sim.NewEngine(),
					hostos.NewVM(hostos.DefaultCostModel()), interconnect.NewLink(interconnect.DefaultPCIe3x16()))
				if (err != nil) != c.wantTree {
					t.Errorf("PrefetchThreshold %v: err = %v, want rejected=%v", th, err, c.wantTree)
				}
			}
		})
	}
}

// TestNewDriverResolvesPolicies checks that each name resolves to its
// registered implementation, that empty names take the defaults, and that
// the adaptive sizers (only they) clamp AdaptiveMin into [1, BatchSize].
func TestNewDriverResolvesPolicies(t *testing.T) {
	cases := []struct {
		pol       PolicySelection
		adaptMin  int
		wantEvict EvictionStrategy
		wantSizer BatchSizer
		wantArch  string
		wantMin   int
	}{
		{PolicySelection{}, 0, lruStrategy{}, fixedSizer{}, "host-driven", 0},
		{PolicySelection{Eviction: "fifo", BatchSizing: "adaptive"}, 0,
			fifoStrategy{}, adaptiveSizer{}, "host-driven", 64},
		{PolicySelection{Eviction: "random", BatchSizing: "degraded-aware", Architecture: "gpu-driven"}, 1000,
			randomStrategy{}, degradedSizer{}, "gpu-driven", 256},
		{PolicySelection{Eviction: "lfu", BatchSizing: "fixed", Architecture: "access-counter"}, 1000,
			lfuStrategy{}, fixedSizer{}, "access-counter", 1000},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%+v", c.pol), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.AdaptiveMin = c.adaptMin
			d := newBareDriver(t, cfg, c.pol)
			if d.evict != c.wantEvict {
				t.Errorf("eviction %T, want %T", d.evict, c.wantEvict)
			}
			if d.sizer != c.wantSizer {
				t.Errorf("sizer %T, want %T", d.sizer, c.wantSizer)
			}
			if got := d.Architecture().Name; got != c.wantArch {
				t.Errorf("architecture %q, want %q", got, c.wantArch)
			}
			if got := d.Config().AdaptiveMin; got != c.wantMin {
				t.Errorf("AdaptiveMin %d, want %d", got, c.wantMin)
			}
		})
	}
}

// TestNewDriverRejectsUnknownPolicy checks every kind: NewDriver and
// PolicySelection.Validate fail with the same UnknownPolicyError, naming
// the valid options in registration order.
func TestNewDriverRejectsUnknownPolicy(t *testing.T) {
	cases := []struct {
		pol  PolicySelection
		want UnknownPolicyError
	}{
		{PolicySelection{Eviction: "clock"},
			UnknownPolicyError{KindEviction, "clock", []string{"lru", "fifo", "random", "lfu"}}},
		{PolicySelection{Prefetch: "stride"},
			UnknownPolicyError{KindPrefetch, "stride", []string{"tree", "off", "cross-block"}}},
		{PolicySelection{BatchSizing: "pid"},
			UnknownPolicyError{KindBatchSizing, "pid", []string{"fixed", "adaptive", "degraded-aware"}}},
		{PolicySelection{Architecture: "warp-speed"},
			UnknownPolicyError{KindArchitecture, "warp-speed", []string{"host-driven", "gpu-driven", "access-counter"}}},
		// Kinds are checked in order: the eviction name fails first.
		{PolicySelection{Eviction: "clock", Architecture: "warp-speed"},
			UnknownPolicyError{KindEviction, "clock", []string{"lru", "fifo", "random", "lfu"}}},
	}
	for _, c := range cases {
		_, err := NewDriver(DefaultConfig(), c.pol, sim.NewEngine(),
			hostos.NewVM(hostos.DefaultCostModel()), interconnect.NewLink(interconnect.DefaultPCIe3x16()))
		var upe *UnknownPolicyError
		if !errors.As(err, &upe) || !errors.Is(err, ErrUnknownPolicy) {
			t.Fatalf("%+v: NewDriver error %v, want an UnknownPolicyError", c.pol, err)
		}
		if !reflect.DeepEqual(*upe, c.want) {
			t.Errorf("%+v: error %+v, want %+v", c.pol, *upe, c.want)
		}
		if verr := c.pol.Validate(); verr == nil || verr.Error() != err.Error() {
			t.Errorf("%+v: Validate error %v, NewDriver error %v", c.pol, verr, err)
		}
	}
}
