package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"guvm/internal/uvm"
)

// TestPrintPolicies checks the shared -list-policies output: every
// registered policy appears under its kind heading, with the kind
// headings themselves in registration order.
func TestPrintPolicies(t *testing.T) {
	var buf bytes.Buffer
	uvm.WritePolicies(&buf)
	out := buf.String()

	last := -1
	for _, kind := range []uvm.PolicyKind{uvm.KindEviction, uvm.KindPrefetch, uvm.KindBatchSizing, uvm.KindArchitecture} {
		i := strings.Index(out, string(kind)+":")
		if i < 0 {
			t.Errorf("listing missing %q heading:\n%s", kind, out)
			continue
		}
		if i < last {
			t.Errorf("kind %q listed out of registration order", kind)
		}
		last = i
	}
	for _, p := range uvm.Policies() {
		if !strings.Contains(out, "  "+p.Name) {
			t.Errorf("listing missing policy %q:\n%s", p.Name, out)
		}
	}
}

// TestUnknownPolicyRejected checks the typed error path the CLI rides on:
// an unregistered name must fail with an UnknownPolicyError that names the
// valid options.
func TestUnknownPolicyRejected(t *testing.T) {
	sel := uvm.PolicySelection{Eviction: "clock"}
	err := sel.Validate()
	if err == nil {
		t.Fatal("Validate accepted unregistered eviction policy \"clock\"")
	}
	if !errors.Is(err, uvm.ErrUnknownPolicy) {
		t.Fatalf("error %v does not wrap ErrUnknownPolicy", err)
	}
	var upe *uvm.UnknownPolicyError
	if !errors.As(err, &upe) {
		t.Fatalf("error %v is not an *UnknownPolicyError", err)
	}
	for _, valid := range []string{"lru", "fifo", "random", "lfu"} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not name valid option %q", err, valid)
		}
	}
}

// buildCLI builds the uvmsim binary into a temporary directory and
// returns its path; it skips the test without a go toolchain.
func buildCLI(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "uvmsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLIAuditOnlyWhenAsked runs vecadd with and without -audit: only the
// audited run attaches an auditor and prints its line, so a plain run
// hashes no model state per batch.
func TestCLIAuditOnlyWhenAsked(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-workload", "vecadd").CombinedOutput()
	if err != nil {
		t.Fatalf("vecadd: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "audit ") {
		t.Errorf("a run without -audit prints an audit line:\n%s", out)
	}
	out, err = exec.Command(bin, "-workload", "vecadd", "-audit").CombinedOutput()
	if err != nil {
		t.Fatalf("vecadd -audit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), " 0 violations, final digest ") {
		t.Errorf("audited run prints no clean audit line:\n%s", out)
	}
}

// TestCLIPolicyFlags builds the real binary and exercises -list-policies
// and the unknown-name rejection end to end.
func TestCLIPolicyFlags(t *testing.T) {
	bin := buildCLI(t)

	out, err := exec.Command(bin, "-list-policies").CombinedOutput()
	if err != nil {
		t.Fatalf("-list-policies: %v\n%s", err, out)
	}
	for _, name := range []string{"lru", "lfu", "tree", "cross-block", "fixed", "adaptive",
		"host-driven", "gpu-driven", "access-counter"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list-policies output missing %q:\n%s", name, out)
		}
	}

	cmd := exec.Command(bin, "-workload", "vecadd", "-evict", "clock")
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-evict clock accepted; output:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-evict clock: want exit code 2, got %v", err)
	}
	if !strings.Contains(string(out), "unknown eviction policy") ||
		!strings.Contains(string(out), "valid: lru, fifo, random, lfu") {
		t.Errorf("rejection message does not name the valid options:\n%s", out)
	}

	cmd = exec.Command(bin, "-workload", "vecadd", "-arch", "warp-speed")
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-arch warp-speed accepted; output:\n%s", out)
	}
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-arch warp-speed: want exit code 2, got %v", err)
	}
	if !strings.Contains(string(out), "unknown architecture policy") ||
		!strings.Contains(string(out), "valid: host-driven, gpu-driven, access-counter") {
		t.Errorf("architecture rejection does not name the valid options:\n%s", out)
	}
}

// TestCLIHWFaultDrill builds the real binary and runs the audited
// device-death drill end to end: the run must exit zero, report the
// re-homing, and show a clean audit.
func TestCLIHWFaultDrill(t *testing.T) {
	bin := buildCLI(t)

	out, err := exec.Command(bin,
		"-workload", "stream", "-mb", "8", "-audit",
		"-hw-fault", "-hw-kill-batch", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("hw-fault drill: %v\n%s", err, out)
	}
	for _, want := range []string{
		"hw fault domain",
		"device death  after batch 3",
		" 0 violations",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("drill output missing %q:\n%s", want, out)
		}
	}

	// Degraded-mode determinism through the CLI flag path.
	out, err = exec.Command(bin,
		"-workload", "stream", "-mb", "8",
		"-hw-fault", "-verify-determinism").CombinedOutput()
	if err != nil {
		t.Fatalf("-hw-fault -verify-determinism: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "determinism verified") {
		t.Errorf("determinism output:\n%s", out)
	}
}

// TestCLICSVInjectColumns checks that -csv derives its injected-fault
// columns from the run: an uninjected run writes the plain per-batch
// columns, and a run with software injection on appends
// inj_mig_failures and inj_host_alloc_fails to the header and every row.
func TestCLICSVInjectColumns(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name string
		args []string
		cols bool
	}{
		{"uninjected", nil, false},
		{"injected", []string{"-inject-mig-rate", "0.02", "-inject-host-rate", "0.02"}, true},
	} {
		csv := filepath.Join(t.TempDir(), "batches.csv")
		args := append([]string{"-workload", "stream", "-mb", "8", "-csv", csv}, tc.args...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, out)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: %d CSV lines, want a header and rows", tc.name, len(lines))
		}
		if got := strings.HasSuffix(lines[0], ",inj_mig_failures,inj_host_alloc_fails"); got != tc.cols {
			t.Errorf("%s: header has injected-fault columns = %v, want %v:\n%s", tc.name, got, tc.cols, lines[0])
		}
		for i, l := range lines[1:] {
			if strings.Count(l, ",") != strings.Count(lines[0], ",") {
				t.Fatalf("%s: row %d has %d columns, header %d", tc.name, i, strings.Count(l, ",")+1, strings.Count(lines[0], ",")+1)
			}
		}
	}
}
