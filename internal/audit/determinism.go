package audit

// DeterminismReport is the outcome of comparing the digest-snapshot
// streams of two runs of the same configuration and workload.
type DeterminismReport struct {
	// Match is true when every compared snapshot pair agreed and both
	// runs produced the same number of snapshots.
	Match bool
	// Compared is the number of snapshot pairs examined.
	Compared int
	// FirstDivergentBatch is the batch ID of the first disagreeing
	// snapshot, or -1 when the runs match.
	FirstDivergentBatch int
	// A and B are the first divergent snapshot pair (zero values when the
	// runs match). Recorder snapshots carry their full state dumps for
	// field-by-field diagnosis.
	A, B Snapshot
}

// CompareSnapshots walks two snapshot streams in order and reports the
// first divergence: a differing digest at the same position, or one run
// producing snapshots the other did not (a diverging batch count).
func CompareSnapshots(a, b []Snapshot) DeterminismReport {
	rep := DeterminismReport{Match: true, FirstDivergentBatch: -1}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		rep.Compared++
		if a[i].Batch != b[i].Batch || a[i].Combined != b[i].Combined {
			rep.Match = false
			rep.FirstDivergentBatch = a[i].Batch
			if b[i].Batch < a[i].Batch {
				rep.FirstDivergentBatch = b[i].Batch
			}
			rep.A, rep.B = a[i], b[i]
			return rep
		}
	}
	if len(a) != len(b) {
		rep.Match = false
		// One run kept batching past the other's end: the divergence is
		// the first unpaired snapshot.
		if len(a) > n {
			rep.A = a[n]
			rep.FirstDivergentBatch = a[n].Batch
		} else {
			rep.B = b[n]
			rep.FirstDivergentBatch = b[n].Batch
		}
	}
	return rep
}
