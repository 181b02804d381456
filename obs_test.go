package guvm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"guvm/internal/analysis"
	"guvm/internal/audit"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/workloads"
)

var updateObsGolden = flag.Bool("update-obs-golden", false, "rewrite the testdata obs goldens (vecadd trace JSON, vecadd breakdown CSV) from the current build")

// obsTestConfig is the audited vecadd configuration shared by the
// observability tests and the golden trace; it matches uvmsim's defaults
// (`uvmsim -workload vecadd -audit`) so the CI golden check can regenerate
// the file through the CLI.
func obsTestConfig() SystemConfig {
	cfg := DefaultConfig()
	cfg.Audit.Enabled = true
	return cfg
}

func runVecAdd(t *testing.T, cfg SystemConfig) (*Simulator, *Result) {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workloads.NewVecAddPaper())
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestObsDigestsUnchanged is the zero-perturbation regression: full
// observability (tracing, engine events, per-batch sampling) must leave
// every per-batch state digest and the final digest byte-identical to an
// unobserved run.
func TestObsDigestsUnchanged(t *testing.T) {
	off := obsTestConfig()
	on := obsTestConfig()
	on.Obs = obs.Config{Trace: true, EngineEvents: true, SampleInterval: 1, Profile: true}

	resOff, snapsOff, _ := recordedRun(t, off, workloads.NewVecAddPaper())
	resOn, snapsOn, _ := recordedRun(t, on, workloads.NewVecAddPaper())

	rep := audit.CompareSnapshots(snapsOff, snapsOn)
	if !rep.Match {
		t.Fatalf("observability perturbed the simulation: first divergent batch %d (%d compared)",
			rep.FirstDivergentBatch, rep.Compared)
	}
	if len(snapsOff) != len(snapsOn) {
		t.Fatalf("snapshot count differs: %d without obs, %d with", len(snapsOff), len(snapsOn))
	}
	if resOff.Audit.FinalDigest != resOn.Audit.FinalDigest {
		t.Fatalf("final digest differs: %016x without obs, %016x with",
			resOff.Audit.FinalDigest, resOn.Audit.FinalDigest)
	}
	if resOff.TotalTime != resOn.TotalTime {
		t.Fatalf("total time differs: %d vs %d", resOff.TotalTime, resOn.TotalTime)
	}
}

// TestObsPhaseSpansPartitionBatches verifies the acceptance contract on a
// real run: for every batch, the LanePhase spans sum exactly to End-Start
// and tile the window without gaps or overlap.
func TestObsPhaseSpansPartitionBatches(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Obs.Trace = true
	s, res := runVecAdd(t, cfg)

	byBatch := make(map[int][]obs.Span)
	for _, sp := range s.Obs.Tracer.Spans() {
		if sp.Lane == obs.LanePhase {
			byBatch[sp.Batch] = append(byBatch[sp.Batch], sp)
		}
	}
	if len(byBatch) != len(res.Batches) {
		t.Fatalf("phase spans cover %d batches, want %d", len(byBatch), len(res.Batches))
	}
	for i := range res.Batches {
		b := &res.Batches[i]
		spans := byBatch[int(b.ID)]
		if len(spans) == 0 {
			t.Fatalf("batch %d has no phase spans", b.ID)
		}
		cursor := b.Start
		var sum sim.Time
		for _, sp := range spans {
			if sp.Start != cursor {
				t.Fatalf("batch %d: span %q starts at %d, want contiguous %d", b.ID, sp.Name, sp.Start, cursor)
			}
			cursor += sp.Dur
			sum += sp.Dur
		}
		if sum != b.Duration() {
			t.Fatalf("batch %d: phase spans sum to %d, want End-Start = %d", b.ID, sum, b.Duration())
		}
	}
}

// TestObsGoldenTrace pins the Chrome trace JSON for the audited vecadd run
// byte-for-byte. Regenerate with:
//
//	go test -run TestObsGoldenTrace -update-obs-golden
func TestObsGoldenTrace(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Obs.Trace = true
	s, _ := runVecAdd(t, cfg)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, s.Obs.Tracer); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "vecadd_trace.golden.json")
	if *updateObsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-obs-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace diverges from %s (%d bytes got, %d want); regenerate with -update-obs-golden if the change is intended",
			golden, buf.Len(), len(want))
	}
}

// TestObsGoldenBreakdown pins the profiler's batch-time breakdown CSV for
// the audited vecadd run byte-for-byte — the same bytes `uvmsim -workload
// vecadd -audit -profile-dir DIR` writes to DIR/breakdown.csv, so CI can
// cross-check the golden through the CLI. Regenerate with:
//
//	go test -run TestObsGoldenBreakdown -update-obs-golden
func TestObsGoldenBreakdown(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Obs.Profile = true
	s, _ := runVecAdd(t, cfg)

	var buf bytes.Buffer
	if err := s.Obs.Profiler.WriteBreakdownCSV(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "vecadd_breakdown.golden.csv")
	if *updateObsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-obs-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("breakdown diverges from %s:\ngot:\n%swant:\n%s(regenerate with -update-obs-golden if the change is intended)",
			golden, buf.String(), want)
	}
}

// TestObsProfilerLifecycleCoversFaults checks the profiler's basic
// accounting on a real run: every raw fault is tracked through all six
// lifecycle transitions, and the per-batch profiles cover every batch.
func TestObsProfilerLifecycleCoversFaults(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Obs.Profile = true
	s, res := runVecAdd(t, cfg)
	p := s.Obs.Profiler

	var buf bytes.Buffer
	if err := p.WriteLifecycleCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := res.DriverStats.TotalFaults
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		if i == 0 {
			continue // header
		}
		fields := bytes.Split(line, []byte(","))
		if string(fields[1]) != fmt.Sprint(want) {
			t.Errorf("lifecycle stage %s tracked %s faults, want %d", fields[0], fields[1], want)
		}
	}
	if got := len(p.Batches()); got != len(res.Batches) {
		t.Fatalf("profiler recorded %d batch profiles, want %d", got, len(res.Batches))
	}
}

// TestObsSamplerDeterministic pins that two identical observed runs
// produce byte-identical metric series.
func TestObsSamplerDeterministic(t *testing.T) {
	series := func() string {
		cfg := obsTestConfig()
		cfg.Obs.SampleInterval = 1
		s, _ := runVecAdd(t, cfg)
		var buf bytes.Buffer
		if err := s.Obs.Sampler.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := series(), series()
	if a != b {
		t.Fatal("two identical runs produced different metric series")
	}
	if len(a) == 0 {
		t.Fatal("empty metric series")
	}
}

// TestStageConsumersAgree checks that the three consumers of the batch
// decomposition — the tracer's phase and detail lanes, the profiler's
// breakdown and analysis.Shares — reproduce trace.BatchRecord.Stages on
// real runs: vecadd, and an oversubscribed stream with four service
// workers, whose serial component timers overflow the parallel service
// window in some batches (service_other clamps there).
func TestStageConsumersAgree(t *testing.T) {
	oversub := obsTestConfig()
	oversub.Driver.GPUMemBytes = 8 << 20
	oversub.Driver.ServiceWorkers = 4
	for _, tc := range []struct {
		name     string
		cfg      SystemConfig
		w        workloads.Workload
		overflow bool
	}{
		{"vecadd", obsTestConfig(), workloads.NewVecAddPaper(), false},
		{"stream-oversub-w4", oversub, workloads.NewStream(16<<20, 24), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Obs = obs.Config{Trace: true, Profile: true}
			s, err := NewSimulator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(tc.w)
			if err != nil {
				t.Fatal(err)
			}

			type spanKey struct {
				batch int
				name  string
			}
			spans := make(map[spanKey]sim.Time)
			for _, sp := range s.Obs.Tracer.Spans() {
				if sp.Lane == obs.LanePhase || sp.Lane == obs.LaneDetail {
					spans[spanKey{sp.Batch, sp.Name}] += sp.Dur
				}
			}
			var cols [trace.NumStages]int64
			var total float64
			overflowed := false
			for i := range res.Batches {
				b := &res.Batches[i]
				st := b.Stages()
				var detail sim.Time
				for k, d := range st {
					if got := spans[spanKey{int(b.ID), trace.StageNames[k]}]; got != max(d, 0) {
						t.Fatalf("batch %d: tracer %s span %d, Stages says %d", b.ID, trace.StageNames[k], got, d)
					}
					if k >= trace.StageBlockMgmt && k < trace.StageReplay {
						detail += d
					}
					cols[k] += int64(d)
				}
				if detail > spans[spanKey{int(b.ID), "service"}] {
					overflowed = true
				}
				total += float64(b.Duration())
			}
			if overflowed != tc.overflow {
				t.Fatalf("detail lane overflowed the service window: %v, want %v", overflowed, tc.overflow)
			}

			rows := s.Obs.Profiler.BreakdownRows()
			if len(rows) != trace.NumStages {
				t.Fatalf("breakdown has %d rows, want %d", len(rows), trace.NumStages)
			}
			for k, r := range rows {
				if r.Stage != trace.StageNames[k] || r.TotalNS != cols[k] {
					t.Fatalf("breakdown row %d = %s %d ns, Stages column sum is %s %d ns",
						k, r.Stage, r.TotalNS, trace.StageNames[k], cols[k])
				}
			}

			share := func(k int) float64 { return float64(cols[k]) / total }
			want := analysis.CostShares{
				Fetch: share(trace.StageFetch), Dedup: share(trace.StageDedup),
				BlockMgmt: share(trace.StageBlockMgmt), Populate: share(trace.StagePopulate),
				PageTable: share(trace.StagePageTable), DMAMap: share(trace.StageDMAMap),
				Unmap: share(trace.StageUnmap), Transfer: share(trace.StageTransfer),
				Evict: share(trace.StageEvict), Replay: share(trace.StageReplay),
			}
			known := want.Fetch + want.Dedup + want.BlockMgmt + want.Populate + want.PageTable +
				want.DMAMap + want.Unmap + want.Transfer + want.Evict + want.Replay
			want.Other = max(1-known, 0)
			if got := analysis.Shares(res.Batches); got != want {
				t.Fatalf("analysis.Shares = %+v\nStages give %+v", got, want)
			}
		})
	}
}
