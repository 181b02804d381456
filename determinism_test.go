package guvm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guvm/internal/audit"
	"guvm/internal/digest"
	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/digests_*.golden from the current pipeline instead of comparing")

// fig08Workload is the stream benchmark Figure 8 profiles, scaled to a
// test-sized footprint.
func fig08Workload() workloads.Workload { return workloads.NewStream(16<<20, 24) }

// TestVerifyDeterminismMatches runs the Figure-8 stream workload twice
// under one configuration and requires bit-identical per-batch state
// digests: the simulator must be deterministic.
func TestVerifyDeterminismMatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver.GPUMemBytes = 64 << 20
	rep, err := VerifyDeterminism(cfg, fig08Workload())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("runs diverged at batch %d:\nA: %+v\nB: %+v",
			rep.FirstDivergentBatch, rep.A, rep.B)
	}
	if rep.Compared == 0 {
		t.Fatal("no snapshots compared — the workload produced no batches")
	}
	if rep.FirstDivergentBatch != -1 {
		t.Fatalf("matching report carries divergent batch %d", rep.FirstDivergentBatch)
	}
}

// TestVerifyDeterminismUnderEviction repeats the check in the most
// state-entangled regime: oversubscribed, with eviction and prefetching
// both active.
func TestVerifyDeterminismUnderEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver.GPUMemBytes = 12 << 20 // 3x16 MB stream -> 400% oversubscribed
	rep, err := VerifyDeterminism(cfg, fig08Workload())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("oversubscribed runs diverged at batch %d", rep.FirstDivergentBatch)
	}
}

// recordedRun runs one workload with a recorder on the device and
// returns the result, the per-batch snapshots and the final combined
// digest. Each attach function runs on the simulator after the recorder
// is attached, before the run.
func recordedRun(t *testing.T, cfg SystemConfig, w workloads.Workload, attach ...func(*Simulator)) (*Result, []audit.Snapshot, uint64) {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := audit.Record(s.Driver, s.Device, s.HostVM)
	for _, f := range attach {
		f(s)
	}
	res, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	final := digest.Combine(s.Driver.Digest(), s.Device.Digest(), s.HostVM.Digest(), s.Driver.Link().Digest())
	return res, rec.Snapshots, final
}

// blockCounter is a batch-end observer that records, per batch ID, how
// many blocks the driver's in-place walk visits.
type blockCounter struct {
	drv    *uvm.Driver
	counts map[int]int
}

func (c *blockCounter) EndBatch(id int, _ *trace.BatchRecord, _ []gpu.Fault) {
	n := 0
	c.drv.VisitBlocks(func(*uvm.BlockAudit) bool { n++; return true })
	c.counts[id] = n
}

// countBlocks attaches a blockCounter to a simulator's driver.
func countBlocks(c *blockCounter) func(*Simulator) {
	return func(s *Simulator) {
		c.drv, c.counts = s.Driver, make(map[int]int)
		s.Driver.Observe(c)
	}
}

// dumpSections splits a recorder dump into its per-model sections, keyed
// by the name before each unindented line's colon; a section holds that
// line and the indented lines below it.
func dumpSections(dump string) map[string][]string {
	secs := make(map[string][]string)
	var name string
	for _, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		if !strings.HasPrefix(line, " ") {
			name, _, _ = strings.Cut(line, ":")
		}
		secs[name] = append(secs[name], line)
	}
	return secs
}

// TestCompareSnapshotsDetectsPerturbation is the negative control for the
// determinism verifier: two runs that genuinely differ (the second's
// fault batch size is halved, changing batching from the first batch on)
// must be reported as divergent, with the first differing batch index and
// two differing dumps, each holding every model's section and one uvm
// block line per block the driver's walk visited at that batch end.
func TestCompareSnapshotsDetectsPerturbation(t *testing.T) {
	base := DefaultConfig()
	base.Driver.GPUMemBytes = 64 << 20

	perturbed := base
	perturbed.Driver.BatchSize = base.Driver.BatchSize / 2

	var countA, countB blockCounter
	_, a, _ := recordedRun(t, base, fig08Workload(), countBlocks(&countA))
	_, b, _ := recordedRun(t, perturbed, fig08Workload(), countBlocks(&countB))

	rep := audit.CompareSnapshots(a, b)
	if rep.Match {
		t.Fatal("perturbed run (half batch size) reported as identical")
	}
	if rep.FirstDivergentBatch < 0 {
		t.Fatalf("divergent report has no divergent batch: %+v", rep)
	}
	if rep.A.Dump == "" || rep.B.Dump == "" {
		t.Fatal("divergent report carries no state dumps")
	}
	if rep.A.Dump == rep.B.Dump {
		t.Fatalf("divergent snapshots dump the same state:\n%s", rep.A.Dump)
	}
	for _, side := range []struct {
		name   string
		snap   audit.Snapshot
		counts map[int]int
	}{{"A", rep.A, countA.counts}, {"B", rep.B, countB.counts}} {
		secs := dumpSections(side.snap.Dump)
		for _, name := range []string{"uvm", "gpu", "hostos", "link"} {
			if len(secs[name]) == 0 {
				t.Errorf("run %s dump has no %s: section:\n%s", side.name, name, side.snap.Dump)
			}
		}
		blocks := 0
		for _, line := range secs["uvm"] {
			if strings.HasPrefix(line, "  block ") {
				blocks++
			}
		}
		if want, ok := side.counts[side.snap.Batch]; !ok || blocks != want {
			t.Errorf("run %s batch %d: uvm section has %d block lines, the walk visited %d blocks (counted %v)",
				side.name, side.snap.Batch, blocks, want, ok)
		}
	}
}

// TestRecorderBesideAuditorMatches runs the recorder alone and then next
// to the auditor on the same driver: checking must not perturb what is
// recorded, so the two snapshot streams must match.
func TestRecorderBesideAuditorMatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Driver.GPUMemBytes = 12 << 20 // 3x16 MB stream -> 400% oversubscribed
	plain, alone, aloneFinal := recordedRun(t, cfg, fig08Workload())
	if plain.Audit != nil {
		t.Fatal("a run without Audit.Enabled carries an audit report")
	}

	cfg.Audit.Enabled = true
	res, beside, final := recordedRun(t, cfg, fig08Workload())
	if res.Audit.BatchesAudited != len(beside) {
		t.Fatalf("auditor saw %d batches, recorder %d", res.Audit.BatchesAudited, len(beside))
	}
	rep := audit.CompareSnapshots(alone, beside)
	if !rep.Match || rep.Compared == 0 {
		t.Fatalf("recording beside the auditor diverged at batch %d (%d compared)",
			rep.FirstDivergentBatch, rep.Compared)
	}
	if final != aloneFinal || final != res.Audit.FinalDigest {
		t.Fatalf("final digests differ: recorder alone %016x, beside the auditor %016x, auditor %016x",
			aloneFinal, final, res.Audit.FinalDigest)
	}
	if last := beside[len(beside)-1]; last.Dump == "" || last.At != res.Batches[last.Batch].End {
		t.Fatalf("last snapshot is incomplete: batch %d at %d, dump %d bytes", last.Batch, last.At, len(last.Dump))
	}
}

// goldenDigestCases are the four frozen reference workloads whose
// per-batch state digests were captured from the pre-pipeline (PR-4)
// driver. They cover the paper's main regimes: first-touch streaming
// (vecadd), oversubscription with heavy eviction (stream at 4x capacity),
// duplicate-heavy tiled reuse under eviction (sgemm), and multithreaded
// host-initialized phases exercising the unmap path (hpgmg).
func goldenDigestCases() []struct {
	name string
	cfg  SystemConfig
	mk   func() workloads.Workload
} {
	vecadd := DefaultConfig()
	stream := DefaultConfig()
	stream.Driver.GPUMemBytes = 12 << 20 // 3x16 MB stream -> 400% oversubscribed
	sgemm := DefaultConfig()
	sgemm.Driver.GPUMemBytes = 8 << 20 // 12 MB footprint -> eviction under reuse
	hpgmg := DefaultConfig()
	return []struct {
		name string
		cfg  SystemConfig
		mk   func() workloads.Workload
	}{
		{"vecadd", vecadd, func() workloads.Workload { return workloads.NewVecAddPaper() }},
		{"stream", stream, func() workloads.Workload { return workloads.NewStream(16<<20, 24) }},
		{"sgemm", sgemm, func() workloads.Workload { return workloads.NewSGEMM(1024) }},
		{"hpgmg", hpgmg, func() workloads.Workload { return workloads.NewHPGMG(16<<20, 4) }},
	}
}

// formatDigestGolden renders one digest snapshot stream in the frozen
// golden format: one line per audited batch with every component digest,
// so a divergence pinpoints both the batch and the subsystem.
func formatDigestGolden(name string, snaps []audit.Snapshot, final uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# per-batch state digests: %s (batch driver device host link combined)\n", name)
	for _, s := range snaps {
		fmt.Fprintf(&b, "%d %016x %016x %016x %016x %016x\n",
			s.Batch, s.Driver, s.Device, s.Host, s.Link, s.Combined)
	}
	fmt.Fprintf(&b, "final %016x\n", final)
	return b.String()
}

// TestBatchDigestGoldens locks the servicing pipeline to the digest
// streams frozen before the driver was decomposed into staged batch
// processing: for each golden workload, every per-batch state digest
// (driver, device, host VM, link, combined) must be byte-identical to the
// pre-refactor monolith's. Regenerate with -update-goldens only for a
// deliberate, explained behaviour change.
func TestBatchDigestGoldens(t *testing.T) {
	for _, tc := range goldenDigestCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, snaps, final := recordedRun(t, tc.cfg, tc.mk())
			if len(snaps) == 0 {
				t.Fatal("no digest snapshots — the workload produced no batches")
			}
			got := formatDigestGolden(tc.name, snaps, final)
			path := filepath.Join("testdata", "digests_"+tc.name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d batches)", path, len(snaps))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to freeze): %v", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("digest stream diverged from pre-refactor golden at line %d:\ngot:  %s\nwant: %s",
							i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("digest stream length differs: got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}

// streamFaultsConfig is the one golden regime that runs both fault
// domains at once: an audited 16 MiB stream with every software
// injection category at rate 0.02 and the link regimes at uvmsim's
// -hw-fault defaults (degrade 0.2, flap 0.1), all under seed 1. It is
// the only case where the two domains share a run, so it pins their
// draws against each other.
func streamFaultsConfig() SystemConfig {
	cfg := DefaultConfig()
	cfg.Audit.Enabled = true
	cfg.Inject.BufferDropRate = 0.02
	cfg.Inject.MigrateFailRate = 0.02
	cfg.Inject.HostAllocFailRate = 0.02
	cfg.Inject.LinkDegradeRate = 0.2
	cfg.Inject.LinkFlapRate = 0.1
	return cfg
}

// formatInjectGolden renders the injector ledgers in a fixed text form:
// one injected/retried/recovered/unrecovered line per category, then
// the device-death count.
func formatInjectGolden(res *Result) string {
	var b strings.Builder
	for c := faultinject.BufferDrop; c <= faultinject.LinkTransfer; c++ {
		n := res.InjectStats.Of(c)
		fmt.Fprintf(&b, "inject %s %d/%d/%d/%d\n", c, n.Injected, n.Retried, n.Recovered, n.Unrecovered)
	}
	fmt.Fprintf(&b, "devices-killed %d\n", res.InjectStats.DevicesKilled)
	return b.String()
}

// TestStreamFaultsGolden freezes the run with software injection and a
// hardware regime together: its per-batch digests, final digest and
// injector ledgers must match testdata/digests_stream_faults.golden.
func TestStreamFaultsGolden(t *testing.T) {
	res, snaps, final := recordedRun(t, streamFaultsConfig(), workloads.NewStream(16<<20, 24))
	if len(res.Audit.Violations) != 0 {
		t.Fatalf("audit violations: %v", res.Audit.Violations)
	}
	got := formatDigestGolden("stream_faults", snaps, final) + formatInjectGolden(res)
	path := filepath.Join("testdata", "digests_stream_faults.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-goldens to freeze): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("diverged from golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
