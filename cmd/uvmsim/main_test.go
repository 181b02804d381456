package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"guvm/internal/experiments"
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

// TestCLIHostThreadLimit: -host-threads past the host VM's 64-thread
// mask exits 2 with the typed error's message instead of silently
// modelling 64 threads, and 64 still runs.
func TestCLIHostThreadLimit(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-workload", "hpgmg", "-mb", "16", "-host-threads", "65").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-host-threads 65: want exit code 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "65 host threads, want 1 to 64") {
		t.Errorf("rejection does not name the count and the limit:\n%s", out)
	}
	if out, err := exec.Command(bin, "-workload", "hpgmg", "-mb", "16", "-host-threads", "64").CombinedOutput(); err != nil {
		t.Fatalf("-host-threads 64: %v\n%s", err, out)
	}
}

// TestCLIBatchSizeLimit: a batch size past the uint16 cells of a batch's
// fault histograms is a config error (exit 2), not a silent wrap, on the
// plain path and under -verify-determinism alike.
func TestCLIBatchSizeLimit(t *testing.T) {
	bin := buildCLI(t)
	for _, extra := range [][]string{nil, {"-verify-determinism"}} {
		args := append([]string{"-workload", "stream", "-mb", "8", "-batch", "65536"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Fatalf("%v: want exit code 2, got %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "BatchSize = 65536, need <= 65535") {
			t.Errorf("%v: rejection does not name the size and the limit:\n%s", args, out)
		}
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

// faultRecord is the part of a -faults-jsonl record that Figure 3 plots.
type faultRecord struct {
	Batch int    `json:"batch"`
	Page  uint64 `json:"page"`
	Kind  string `json:"kind"`
}

// faultRecords runs the CLI with -faults-jsonl and decodes the per-fault
// records it writes.
func faultRecords(t *testing.T, bin string, args ...string) []faultRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faults.jsonl")
	if out, err := exec.Command(bin, append(args, "-faults-jsonl", path)...).CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []faultRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r faultRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("record %d: %v", len(recs), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCLIFaultsMatchFig03 checks that the per-fault timeline of the
// paper's Listing 1 reaches users through uvmsim: -workload vecadd
// -prefetch=false -faults-jsonl writes experiments.Fig03's series record
// for record (batch id, vector, page in vector, is_write). The JSONL
// holds absolute pages, so each vector's base is taken as page minus
// page-in-vector and must be one value per vector, in allocation order.
// The prefetch-instruction kernel of Figure 5 must yield its 768 faults.
func TestCLIFaultsMatchFig03(t *testing.T) {
	bin := buildCLI(t)
	recs := faultRecords(t, bin, "-workload", "vecadd", "-prefetch=false")
	a, err := experiments.Fig03()
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Series[0].Rows
	if len(recs) != len(rows) || len(rows) == 0 {
		t.Fatalf("uvmsim wrote %d fault records, Fig03 has %d", len(recs), len(rows))
	}
	var bases [3]uint64
	var seen [3]bool
	for i, row := range rows {
		r := recs[i]
		batch, vec, off, write := int(row[1]), int(row[2]), uint64(row[3]), row[4] == 1
		if r.Batch != batch || (r.Kind == "write") != write {
			t.Fatalf("fault %d: uvmsim batch %d kind %s, Fig03 batch %d is_write %v",
				i, r.Batch, r.Kind, batch, write)
		}
		base := r.Page - off
		if !seen[vec] {
			bases[vec], seen[vec] = base, true
		} else if base != bases[vec] {
			t.Fatalf("fault %d: page %d is not page %d of vector %d (base %d)", i, r.Page, off, vec, bases[vec])
		}
	}
	if !(bases[0] < bases[1] && bases[1] < bases[2]) {
		t.Errorf("vector bases %v are not in allocation order", bases)
	}
	for i, row := range rows {
		if vec := int(row[2]); vec < 2 && recs[i].Page >= bases[vec+1] {
			t.Errorf("fault %d: page %d lies past vector %d", i, recs[i].Page, vec)
		}
	}

	if n := len(faultRecords(t, bin, "-workload", "vecadd-prefetch", "-prefetch=false")); n != 768 {
		t.Errorf("vecadd-prefetch wrote %d fault records, want 768", n)
	}
}
