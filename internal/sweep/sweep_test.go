package sweep

import (
	"flag"
	"os"
	"strings"
	"testing"

	"guvm/internal/uvm"
)

// specFromArgs parses args the way uvmsweep does: the sweep flag block,
// then Flags.Spec.
func specFromArgs(t *testing.T, args ...string) Spec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFlagsSelections covers the sweep flag expansion: alias
// normalization, deterministic cross-product order with the architecture
// innermost, rejection of unknown names with the valid options, and the
// batch-size bound.
func TestFlagsSelections(t *testing.T) {
	pts, err := specFromArgs(t, "-workload", "stream", "-caps", "64",
		"-prefetch", "on,off", "-evict", "lru", "-arch", "host-driven,gpu-driven").Points(uvm.PolicySelection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (2 prefetch x 2 arch)", len(pts))
	}
	if pts[0].Prefetch != "tree" {
		t.Fatalf("alias 'on' not normalized to tree: %+v", pts[0])
	}
	if pts[0].Arch != "host-driven" || pts[1].Arch != "gpu-driven" {
		t.Fatalf("architecture is not the innermost dimension: %+v", pts[:2])
	}

	if _, err := specFromArgs(t, "-arch", "warp-speed").Points(uvm.PolicySelection{}); err == nil || !strings.Contains(err.Error(), "host-driven") {
		t.Fatalf("unknown architecture not rejected with options: %v", err)
	}
	// A batch past the uint16 histogram cells fails the whole grid up
	// front, valid sizes beside it included, so no point runs.
	if _, err := specFromArgs(t, "-batches", "256,65536").Points(uvm.PolicySelection{}); err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("batch size 65536 not rejected by Points: %v", err)
	}
	if _, err := specFromArgs(t, "-batches", "256,65535").Points(uvm.PolicySelection{}); err != nil {
		t.Fatalf("batch size 65535 rejected: %v", err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-caps", "32,x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Spec(); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("bad list element not rejected by name: %v", err)
	}
}

// TestDefaultsFillEmptyDimensions requires the caller's default policies
// to fill only the dimensions a spec leaves empty, and the historical
// defaults to fill the rest.
func TestDefaultsFillEmptyDimensions(t *testing.T) {
	spec := Spec{Workload: "stream", Evict: []string{"lru"}}
	pts, err := spec.Points(uvm.PolicySelection{Eviction: "fifo", Architecture: "gpu-driven"})
	if err != nil {
		t.Fatal(err)
	}
	want := Point{Workload: "stream", MB: 64, N: 3072, Seed: 11, BatchSize: 256, CapMB: 64,
		Evict: "lru", Prefetch: "tree", Sizing: "fixed", Arch: "gpu-driven"}
	if len(pts) != 1 || pts[0] != want {
		t.Fatalf("points %+v, want [%+v]", pts, want)
	}
}

// TestUvmsweepGoldens drives uvmsweep's command lines through Flags,
// Spec, Points, Run and CSVRow, and requires each CSV to match the
// golden frozen from uvmsweep byte for byte, audited or not.
func TestUvmsweepGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"uvmsweep_default.golden.csv", nil},
		{"uvmsweep_stream.golden.csv", []string{"-workload", "stream"}},
		{"uvmsweep_mixed.golden.csv", []string{"-workload", "stream", "-mb", "4",
			"-batches", "128,256", "-caps", "8,16", "-prefetch", "on,off",
			"-evict", "lru,fifo", "-arch", "host-driven,gpu-driven"}},
	} {
		want, err := os.ReadFile("../../testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := specFromArgs(t, tc.args...).Points(uvm.PolicySelection{})
		if err != nil {
			t.Fatal(err)
		}
		for _, audit := range []bool{false, true} {
			var b strings.Builder
			b.WriteString(CSVHeader + "\n")
			for _, p := range pts {
				r, state, err := Run(p, audit)
				if err != nil {
					t.Fatal(err)
				}
				if audit == (state == 0) {
					t.Fatalf("%s audit=%v: state digest %#x", tc.golden, audit, state)
				}
				b.WriteString(CSVRow(p, r) + "\n")
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("%s (audit=%v) drifted:\ngot:\n%s\nwant:\n%s", tc.golden, audit, got, want)
			}
		}
	}
}
