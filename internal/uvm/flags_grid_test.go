package uvm_test

import (
	"flag"
	"strings"
	"testing"

	"guvm/internal/sweepd"
	"guvm/internal/uvm"
)

// gridFromFlags parses args into the sweep policy flag block and expands
// the lists through sweepd.JobSpec.Points, the one grid expander, the way
// uvmsweep does.
func gridFromFlags(t *testing.T, args ...string) ([]sweepd.PointConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	pf := uvm.RegisterPolicyListFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sweepd.JobSpec{
		Workload: "stream",
		Evict:    strings.Split(pf.Eviction, ","),
		Prefetch: strings.Split(pf.Prefetch, ","),
		Sizing:   strings.Split(pf.BatchSizing, ","),
		Arch:     strings.Split(pf.Architecture, ","),
	}.Points()
}

// TestPolicyListFlagsSelections covers the sweep flag expansion: alias
// normalization, deterministic cross-product order with the architecture
// innermost, and rejection of unknown names with the valid options.
func TestPolicyListFlagsSelections(t *testing.T) {
	pts, err := gridFromFlags(t, "-prefetch", "on,off", "-evict", "lru", "-arch", "host-driven,gpu-driven")
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

	if _, err := gridFromFlags(t, "-arch", "warp-speed"); err == nil || !strings.Contains(err.Error(), "host-driven") {
		t.Fatalf("unknown architecture not rejected with options: %v", err)
	}
}
