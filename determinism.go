package guvm

import (
	"fmt"

	"guvm/internal/audit"
	"guvm/internal/workloads"
)

// VerifyDeterminism runs the same workload twice under the same
// configuration, recording every model's state digest at every batch
// boundary (audit.Record), and compares the two snapshot streams. A
// correct simulator is bit-deterministic, so the report must match; a
// divergence pinpoints the first batch whose state differed, with full
// state dumps of both sides for diagnosis.
//
// The workload's Phases method must be reusable (every bundled workload
// builds fresh seeded RNGs per call). The configuration is used as
// given: with Audit enabled, the auditor checks both runs too.
func VerifyDeterminism(cfg SystemConfig, w workloads.Workload) (*audit.DeterminismReport, error) {
	one := func(label string) ([]audit.Snapshot, error) {
		s, err := NewSimulator(cfg)
		if err != nil {
			return nil, fmt.Errorf("guvm: determinism %s run: %w", label, err)
		}
		rec := audit.Record(s.Driver, s.Device, s.HostVM)
		if _, err := s.Run(w); err != nil {
			return nil, fmt.Errorf("guvm: determinism %s run: %w", label, err)
		}
		return rec.Snapshots, nil
	}

	first, err := one("first")
	if err != nil {
		return nil, err
	}
	second, err := one("second")
	if err != nil {
		return nil, err
	}
	rep := audit.CompareSnapshots(first, second)
	return &rep, nil
}
