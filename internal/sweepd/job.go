package sweepd

import (
	"fmt"

	"guvm/internal/sweep"
)

// JobSpec is the wire-format sweep request: a sweep.Spec plus the job's
// deadline. The spec's fields stay at the top level of the JSON object.
type JobSpec struct {
	sweep.Spec
	// DeadlineMS bounds the whole job in wall-clock milliseconds;
	// 0 uses the service default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// PointRow is the per-point result streamed to clients and persisted as
// the cached artifact. Digests are hex strings because JSON numbers lose
// precision above 2^53.
type PointRow struct {
	ConfigDigest string      `json:"config_digest"`
	StateDigest  string      `json:"state_digest,omitempty"`
	Point        sweep.Point `json:"point"`
	sweep.Result

	// Cached marks a row served from the result store rather than a fresh
	// simulation. Stripped before persisting, so artifacts are identical
	// however they were produced.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts simulation attempts (1 = first try succeeded).
	Attempts int `json:"attempts,omitempty"`
	// Error is set instead of a result when every attempt failed.
	Error string `json:"error,omitempty"`
}

// SimulatePoint runs one grid point to completion and returns its result
// row plus the simulator's final state digest. The invariant auditor is
// always on so the digest exists; it is the bit-identity witness cached
// results are compared against.
func SimulatePoint(p sweep.Point) (PointRow, uint64, error) {
	r, state, err := sweep.Run(p, true)
	if err != nil {
		return PointRow{}, 0, fmt.Errorf("sweepd: %w", err)
	}
	return PointRow{
		ConfigDigest: fmt.Sprintf("%016x", p.Digest()),
		StateDigest:  fmt.Sprintf("%016x", state),
		Point:        p,
		Result:       r,
	}, state, nil
}
