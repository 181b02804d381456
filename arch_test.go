package guvm

// arch_test.go — the architecture seam's system-level contract: an
// unknown -arch name is rejected with the valid options, the default
// host-driven entry is bit-identical to leaving the architecture unset,
// and the two alternative architectures are deterministic and pass the
// invariant auditor under oversubscription.

import (
	"errors"
	"strings"
	"testing"

	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// TestUnknownArchitectureRejected requires the construction-time error
// for an unregistered architecture to carry the registered options, so a
// CLI typo surfaces every valid -arch value.
func TestUnknownArchitectureRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policies.Architecture = "speculative"
	_, err := NewSimulator(cfg)
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	var upe *uvm.UnknownPolicyError
	if !errors.As(err, &upe) {
		t.Fatalf("error is %T, want *uvm.UnknownPolicyError: %v", err, err)
	}
	if upe.Kind != uvm.KindArchitecture {
		t.Fatalf("error kind %q, want %q", upe.Kind, uvm.KindArchitecture)
	}
	for _, name := range []string{"host-driven", "gpu-driven", "access-counter"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name the valid option %q", err, name)
		}
	}
}

// TestHostDrivenMatchesDefault runs each golden workload with the
// architecture explicitly set to host-driven and requires the digest
// stream to be bit-identical to the unset default: selecting the paper's
// architecture by name must be a no-op.
func TestHostDrivenMatchesDefault(t *testing.T) {
	for _, tc := range goldenDigestCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(arch string) string {
				cfg := tc.cfg
				cfg.Policies.Architecture = arch
				_, snaps, final := recordedRun(t, cfg, tc.mk())
				return formatDigestGolden(tc.name, snaps, final)
			}
			if got, want := run("host-driven"), run(""); got != want {
				t.Fatalf("explicit host-driven diverges from the default architecture:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestAlternativeArchitecturesDeterministic requires the gpu-driven and
// access-counter pipelines to produce bit-identical per-batch state
// digests across two same-seed runs, like the host-driven default.
func TestAlternativeArchitecturesDeterministic(t *testing.T) {
	for _, arch := range []string{"gpu-driven", "access-counter"} {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Driver.GPUMemBytes = 64 << 20
			cfg.Policies.Architecture = arch
			rep, err := VerifyDeterminism(cfg, fig08Workload())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match {
				t.Fatalf("%s runs diverged at batch %d", arch, rep.FirstDivergentBatch)
			}
			if rep.Compared == 0 {
				t.Fatal("no snapshots compared — the workload produced no batches")
			}
		})
	}
}

// TestAlternativeArchitecturesPassAudit runs the oversubscribed stream
// workload (heavy eviction) under both alternative architectures, with
// tree and with cross-block prefetch, and the invariant auditor on every
// batch: the lifted stage graphs must uphold the same residency/accounting
// invariants as the default. Under access-counter a faulted block can end
// its service with nothing resident (remote-mapped), so only its batch
// stamp keeps the cross-block stage from servicing it a second time.
func TestAlternativeArchitecturesPassAudit(t *testing.T) {
	for _, arch := range []string{"gpu-driven", "access-counter"} {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			for _, pf := range []string{"tree", "cross-block"} {
				pf := pf
				t.Run(pf, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Driver.GPUMemBytes = 12 << 20 // 3x16 MB stream -> 400% oversubscribed
					cfg.Policies.Architecture = arch
					cfg.Policies.Prefetch = pf
					cfg.Audit.Enabled = true
					s, err := NewSimulator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(workloads.NewStream(16<<20, 24))
					if err != nil {
						t.Fatal(err)
					}
					if res.Audit == nil || res.Audit.BatchesAudited == 0 {
						t.Fatal("auditor did not run")
					}
					if n := len(res.Audit.Violations); n != 0 {
						t.Fatalf("%s/%s: %d invariant violations, first: %+v", arch, pf, n, res.Audit.Violations[0])
					}
				})
			}
		})
	}
}
