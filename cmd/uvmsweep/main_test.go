package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIBatchGridLimit builds the real binary: a grid holding a batch
// size past the uint16 cells of a batch's fault histograms is a config
// error (exit 2) raised before any point runs, so stdout stays empty,
// without even the CSV header.
func TestCLIBatchGridLimit(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "uvmsweep")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-workload", "stream", "-mb", "1", "-batches", "256,65536", "-jobs", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-batches 256,65536: want exit code 2, got %v\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected grid wrote to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "batch size 65536 out of range") {
		t.Errorf("rejection does not name the batch size:\n%s", stderr.String())
	}
}
