package experiments

import (
	"context"
	"testing"

	"guvm"
	"guvm/internal/audit"
	"guvm/internal/digest"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// policyCombo is one named-policy configuration of the §6 driver
// extensions: parallel VABlock servicing (ServiceWorkers) and the
// registry-selected eviction/prefetch/batch-sizing policies.
type policyCombo struct {
	name    string
	workers int
	pols    uvm.PolicySelection
}

// interplayCombos pairs each §6 extension with at least one named policy
// combination: parallel VABlock servicing under fifo+tree+fixed, adaptive
// batch sizing under lru+off, and both extensions together under
// lfu+cross-block+adaptive.
func interplayCombos() []policyCombo {
	return []policyCombo{
		{"parallel/fifo+tree+fixed", 4,
			uvm.PolicySelection{Eviction: "fifo", Prefetch: "tree", BatchSizing: "fixed"}},
		{"adaptive/lru+off+adaptive", 1,
			uvm.PolicySelection{Eviction: "lru", Prefetch: "off", BatchSizing: "adaptive"}},
		{"both/lfu+cross-block+adaptive", 2,
			uvm.PolicySelection{Eviction: "lfu", Prefetch: "cross-block", BatchSizing: "adaptive"}},
	}
}

// comboOutcome is what one combo run reduces to: the folded per-batch
// digest stream plus the counters that prove the policies were exercised.
// It carries any run error instead of failing inline, because runCombo
// executes on ForEachOrdered worker goroutines where t.Fatal is illegal.
type comboOutcome struct {
	hash      digest.Hash
	batches   int
	evictions int
	err       error
}

// runCombo executes one combo on an oversubscribed stream (eviction
// active) and folds every per-batch state digest into one hash.
func runCombo(c policyCombo) comboOutcome {
	cfg := guvm.DefaultConfig()
	cfg.Driver.GPUMemBytes = 12 << 20 // 3x16 MB stream: eviction active
	cfg.Driver.ServiceWorkers = c.workers
	cfg.Policies = c.pols
	cfg.Audit.Enabled = true
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		return comboOutcome{err: err}
	}
	rec := audit.Record(s.Driver, s.Device, s.HostVM)
	res, err := s.Run(workloads.NewStream(16<<20, 24))
	if err != nil {
		return comboOutcome{err: err}
	}
	h := digest.New()
	for _, snap := range rec.Snapshots {
		h = h.Int(snap.Batch).Uint64(snap.Combined)
	}
	h = h.Uint64(res.Audit.FinalDigest)
	return comboOutcome{
		hash:      h,
		batches:   len(res.Batches),
		evictions: res.DriverStats.Evictions,
	}
}

// TestPolicyInterplayDigestsAcrossJobs runs every extension-x-policy combo
// through the harness worker pool at -jobs 1 and -jobs 8 and requires the
// per-batch digest streams to be byte-identical: neither the parallel
// servicing extension, the named policies, nor harness concurrency may
// perturb simulation state.
func TestPolicyInterplayDigestsAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("interplay digests are integration-scale")
	}
	combos := interplayCombos()
	at := func(jobs int) []comboOutcome {
		var out []comboOutcome
		ForEachOrdered(context.Background(), len(combos), jobs, func(i int) comboOutcome {
			return runCombo(combos[i])
		}, func(i int, o comboOutcome) {
			if o.err != nil {
				t.Fatalf("%s (jobs=%d): %v", combos[i].name, jobs, o.err)
			}
			out = append(out, o)
		})
		return out
	}
	seq := at(1)
	par := at(8)
	for i, c := range combos {
		if seq[i].batches == 0 {
			t.Errorf("%s: produced no batches", c.name)
		}
		if seq[i].evictions == 0 {
			t.Errorf("%s: oversubscribed run exercised no evictions — the %s policy never ran",
				c.name, c.pols.Eviction)
		}
		if seq[i].hash != par[i].hash {
			t.Errorf("%s: digest stream differs between -jobs 1 (%x) and -jobs 8 (%x)",
				c.name, seq[i].hash, par[i].hash)
		}
	}
}

// TestAdaptiveSizingChangesBatching is the negative control for the combo
// digests: the named "adaptive" batch-sizing policy must actually change
// driver behaviour versus "fixed" on a duplicate-heavy workload, so
// identical digests above cannot mean the policy never engaged.
func TestAdaptiveSizingChangesBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("interplay digests are integration-scale")
	}
	run := func(sizing string) digest.Hash {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 64 << 20
		cfg.Driver.BatchSize = 1024
		cfg.Policies = uvm.PolicySelection{Prefetch: "off", BatchSizing: sizing}
		cfg.Audit.Enabled = true
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := audit.Record(s.Driver, s.Device, s.HostVM)
		if _, err := s.Run(workloads.NewSGEMM(1024)); err != nil {
			t.Fatal(err)
		}
		h := digest.New()
		for _, snap := range rec.Snapshots {
			h = h.Uint64(snap.Combined)
		}
		return h
	}
	if run("fixed") == run("adaptive") {
		t.Fatal("fixed and adaptive batch sizing produced identical digest streams — the adaptive policy never engaged")
	}
}

// TestNoPrefetchBeatsOverride checks that an experiment's own prefetch
// choice wins over a SetPolicies prefetch override: noPrefetch runs
// migrate no prefetched page under any named override.
func TestNoPrefetchBeatsOverride(t *testing.T) {
	defer SetPolicies(uvm.PolicySelection{})
	for _, pol := range []string{"tree", "cross-block", "off"} {
		t.Run(pol, func(t *testing.T) {
			if err := SetPolicies(uvm.PolicySelection{Prefetch: pol}); err != nil {
				t.Fatal(err)
			}
			res, err := run(noPrefetch(baseConfig()), workloads.NewStream(4<<20, 8))
			if err != nil {
				t.Fatal(err)
			}
			if n := res.DriverStats.PrefetchedPages; n != 0 {
				t.Errorf("override %q: noPrefetch run prefetched %d pages", pol, n)
			}
		})
	}
}

// TestSetPoliciesResetsTableRuns checks that a policy change reaches the
// memoized Table 2/3 runs: after the memo is filled under the default
// selection, switching the architecture must change the stream run the
// tables read, not serve the run made before the switch.
func TestSetPoliciesResetsTableRuns(t *testing.T) {
	defer func() {
		SetPolicies(uvm.PolicySelection{})
		ResetCache()
	}()
	if err := SetPolicies(uvm.PolicySelection{}); err != nil {
		t.Fatal(err)
	}
	runs, err := tableRuns()
	if err != nil {
		t.Fatal(err)
	}
	before := runs["stream"].DriverStats.Batches
	if err := SetPolicies(uvm.PolicySelection{Architecture: "access-counter"}); err != nil {
		t.Fatal(err)
	}
	if runs, err = tableRuns(); err != nil {
		t.Fatal(err)
	}
	if after := runs["stream"].DriverStats.Batches; after == before {
		t.Errorf("stream ran %d batches under both the default and the access-counter architecture: the Table 2/3 memo outlived SetPolicies", after)
	}
}
