package uvm

// registry.go — the named driver-policy registry.
//
// The paper's driver analysis ends on policy questions ("this LRU policy
// may not be optimal", §5.4; batch sizing and prefetch scope, §6). The
// registry makes each of those decision points a named, pluggable policy
// attached at a stage seam of the batch pipeline (pipeline.go):
//
//	eviction     — victim selection in the residency stage (residency.go)
//	prefetch     — migration planning in the prefetch-plan stage
//	               (prefetchplan.go), including cross-block scope
//	batch-sizing — effective-batch adjustment in the replay stage
//	               (replay.go)
//	architecture — the stage graph itself: fault-observation point, stage
//	               list, and mapping-state owner (arch.go)
//
// A PolicySelection holds one name per kind; NewDriver resolves each name
// once, at construction. guvm.SystemConfig.Policies, the CLI flags and the
// experiment ablations all select policies this way, and an unregistered
// name is rejected with an UnknownPolicyError that names the valid
// options.

import (
	"errors"
	"fmt"
	"strings"

	"guvm/internal/mem"
	"guvm/internal/trace"
)

// PolicyKind names one of the driver's pluggable decision points.
type PolicyKind string

const (
	KindEviction     PolicyKind = "eviction"
	KindPrefetch     PolicyKind = "prefetch"
	KindBatchSizing  PolicyKind = "batch-sizing"
	KindArchitecture PolicyKind = "architecture"
)

// PolicyInfo describes one registered policy for listings.
type PolicyInfo struct {
	Kind        PolicyKind
	Name        string
	Description string
}

// ErrUnknownPolicy is the sentinel wrapped by every UnknownPolicyError.
var ErrUnknownPolicy = errors.New("unknown policy")

// UnknownPolicyError reports a policy name absent from the registry. It
// carries (and prints) the valid options so callers can surface them.
type UnknownPolicyError struct {
	Kind  PolicyKind
	Name  string
	Valid []string
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("uvm: unknown %s policy %q (valid: %s)",
		e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

func (e *UnknownPolicyError) Unwrap() error { return ErrUnknownPolicy }

// EvictionStrategy picks the victim VABlock under memory pressure. Pick
// receives the candidate indices into the driver's allocation-ordered
// block list (never empty) and returns the chosen one. Implementations
// must be deterministic given the driver state ("random" draws from the
// driver's seeded RNG). candidates is the driver's pooled scratch:
// it is valid only during Pick, which must not retain or modify it.
type EvictionStrategy interface {
	Pick(d *Driver, candidates []int) int
}

// PrefetchPlanner decides which pages beyond the deduplicated faulted set
// migrate. PlanBlock returns the extra in-block pages (excluding resident
// and faulted ones).
type PrefetchPlanner interface {
	PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet
}

// BatchSizer adjusts the driver's effective batch size after each
// completed batch (the §6 "tune batch size based on the number of
// duplicate faults received" seam).
type BatchSizer interface {
	Update(d *Driver, rec *trace.BatchRecord)
}

// policyEntry is one registered policy; payload holds the kind-specific
// implementation (EvictionStrategy, prefetchPolicy, BatchSizer, or
// *archPayload).
type policyEntry struct {
	info    PolicyInfo
	payload any
}

// policyTable is one kind's registry. Entries keep registration order so
// listings (and the ablation sweeps built on them) are deterministic.
type policyTable struct {
	kind    PolicyKind
	entries []policyEntry
}

func (t *policyTable) register(name, desc string, payload any) {
	if _, ok := t.lookup(name); ok {
		panic(fmt.Sprintf("uvm: duplicate %s policy %q", t.kind, name))
	}
	t.entries = append(t.entries, policyEntry{
		info:    PolicyInfo{Kind: t.kind, Name: name, Description: desc},
		payload: payload,
	})
}

func (t *policyTable) lookup(name string) (policyEntry, bool) {
	for _, e := range t.entries {
		if e.info.Name == name {
			return e, true
		}
	}
	return policyEntry{}, false
}

func (t *policyTable) names() []string {
	out := make([]string, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.info.Name
	}
	return out
}

func (t *policyTable) unknown(name string) *UnknownPolicyError {
	return &UnknownPolicyError{Kind: t.kind, Name: name, Valid: t.names()}
}

// resolve returns the payload registered under name, or under def when
// name is empty.
func (t *policyTable) resolve(name, def string) (any, error) {
	if name == "" {
		name = def
	}
	e, ok := t.lookup(name)
	if !ok {
		return nil, t.unknown(name)
	}
	return e.payload, nil
}

var (
	evictionRegistry = &policyTable{kind: KindEviction}
	prefetchRegistry = &policyTable{kind: KindPrefetch}
	sizingRegistry   = &policyTable{kind: KindBatchSizing}
)

func init() {
	evictionRegistry.register("lru",
		"evict the least-recently-migrated block (shipped driver; degrades to earliest-allocated, §5.4)",
		lruStrategy{})
	evictionRegistry.register("fifo",
		"evict in chunk allocation order",
		fifoStrategy{})
	evictionRegistry.register("random",
		"evict a seeded-random resident block",
		randomStrategy{})
	evictionRegistry.register("lfu",
		"evict the block with the fewest GPU access-counter hits (the page-hit signal §5.4 says LRU lacks)",
		lfuStrategy{})

	prefetchRegistry.register("tree",
		"density (tree-based) prefetching within the faulting VABlock (shipped driver, §5.2)",
		prefetchPolicy{planner: treePlanner{}})
	prefetchRegistry.register("off",
		"no prefetching: migrate only deduplicated faulted pages",
		prefetchPolicy{planner: offPlanner{}})
	prefetchRegistry.register("cross-block",
		"tree prefetching plus eager whole-block migration beyond the faulting VABlock (§6 proposal)",
		prefetchPolicy{planner: treePlanner{}, scope: crossBlockScope})

	sizingRegistry.register("fixed",
		"fixed effective batch size (shipped driver: BatchSize faults per batch)",
		fixedSizer{})
	sizingRegistry.register("adaptive",
		"duplicate-adaptive batch sizing within [AdaptiveMin, BatchSize] (§6 proposal)",
		adaptiveSizer{})
	sizingRegistry.register("degraded-aware",
		"adaptive sizing that halves the batch while the interconnect is degraded, flapping or dead",
		degradedSizer{})
}

// Policies lists every registered policy of every kind, in registration
// order (eviction, then prefetch, then batch sizing, then architecture).
func Policies() []PolicyInfo {
	var out []PolicyInfo
	for _, t := range []*policyTable{evictionRegistry, prefetchRegistry, sizingRegistry, architectureRegistry} {
		for _, e := range t.entries {
			out = append(out, e.info)
		}
	}
	return out
}

// PoliciesOf lists the registered policies of one kind.
func PoliciesOf(kind PolicyKind) []PolicyInfo {
	var out []PolicyInfo
	for _, p := range Policies() {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

// PolicySelection names the driver's policies, one registry name per
// kind. It is the only place a policy is chosen: NewDriver resolves each
// name once, at construction. An empty field selects the default: "lru",
// "fixed" and "host-driven"; an empty Prefetch selects "tree" when
// Config.PrefetchEnabled is set and "off" when it is not.
type PolicySelection struct {
	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
}

// Validate checks every non-empty name against its registry, in the order
// eviction, prefetch, batch sizing, architecture. The error is an
// UnknownPolicyError naming the valid options.
func (s PolicySelection) Validate() error {
	for _, c := range []struct {
		t    *policyTable
		name string
	}{
		{evictionRegistry, s.Eviction},
		{prefetchRegistry, s.Prefetch},
		{sizingRegistry, s.BatchSizing},
		{architectureRegistry, s.Architecture},
	} {
		if c.name == "" {
			continue
		}
		if _, ok := c.t.lookup(c.name); !ok {
			return c.t.unknown(c.name)
		}
	}
	return nil
}

// resolvedPolicies holds the runtime implementations a selection names.
type resolvedPolicies struct {
	evict    EvictionStrategy
	prefetch prefetchPolicy
	sizer    BatchSizer
	arch     *archPayload
}

// resolve looks each name up once ("" takes the default) and applies the
// one knob adjustment of the chosen policies to cfg, the driver's own
// copy: the adaptive batch sizers clamp AdaptiveMin into [1, BatchSize]
// (64 when unset).
func (s PolicySelection) resolve(cfg *Config) (resolvedPolicies, error) {
	if err := s.Validate(); err != nil {
		return resolvedPolicies{}, err
	}
	// Validate guarantees every name below resolves.
	evict, _ := evictionRegistry.resolve(s.Eviction, "lru")
	sizer, _ := sizingRegistry.resolve(s.BatchSizing, "fixed")
	arch, _ := resolveArchitecture(s.Architecture)
	defPrefetch := "off"
	if cfg.PrefetchEnabled {
		defPrefetch = "tree"
	}
	prefetch, _ := prefetchRegistry.resolve(s.Prefetch, defPrefetch)
	if _, fixed := sizer.(fixedSizer); !fixed {
		if cfg.AdaptiveMin < 1 {
			cfg.AdaptiveMin = 64
		}
		if cfg.AdaptiveMin > cfg.BatchSize {
			cfg.AdaptiveMin = cfg.BatchSize
		}
	}
	return resolvedPolicies{
		evict:    evict.(EvictionStrategy),
		prefetch: prefetch.(prefetchPolicy),
		sizer:    sizer.(BatchSizer),
		arch:     arch,
	}, nil
}
