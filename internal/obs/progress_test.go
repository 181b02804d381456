package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"guvm/internal/experiments"
	"guvm/internal/obs"
)

// progressRun drives a harness progress surface the way the harness CLIs
// do: n units on a pool of jobs workers, collected in index order. Unit i
// sleeps longer the smaller i is, so on several workers the units finish
// in roughly reverse order. It returns the -metrics-csv file and the log.
func progressRun(t *testing.T, n, jobs, interval int) (string, string) {
	t.Helper()
	dir := t.TempDir()
	f := &obs.Flags{MetricsCSV: filepath.Join(dir, "m.csv"), MetricsInterval: interval}
	var log bytes.Buffer
	work := 0
	p, err := f.StartProgress(&log, n, obs.ProgressMetrics{
		Total: "units_total", TotalHelp: "Units in this run",
		Done: "units_done_total", DoneHelp: "Units completed",
	}, func(reg *obs.Registry) {
		reg.Func("units_work_total", "Work across completed units", func() float64 { return float64(work) })
	}, func(done int) any { return done })
	if err != nil {
		t.Fatal(err)
	}
	err = experiments.ForEachOrdered(context.Background(), n, jobs, func(i int) time.Duration {
		d := time.Duration(n-i) * 200 * time.Microsecond
		time.Sleep(d)
		return d
	}, func(i int, d time.Duration) {
		work += 10 * i
		p.Collect(i, 1, "units", "unit", fmt.Sprint(i), d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Done() != n {
		t.Fatalf("Done() = %d after %d units", p.Done(), n)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(f.MetricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	return string(csv), log.String()
}

// TestProgressSamplesKeyedByCompletedCount checks the harness progress
// series: each sampled row is keyed by the number of units completed and
// tagged with the unit's index, the columns keep registration order, and
// the file is byte-identical whether the units finished in order on one
// worker or out of order on four.
func TestProgressSamplesKeyedByCompletedCount(t *testing.T) {
	const n = 12
	for _, interval := range []int{1, 5} {
		serial, log := progressRun(t, n, 1, interval)
		parallel, _ := progressRun(t, n, 4, interval)
		if serial != parallel {
			t.Fatalf("interval %d: series depends on completion order:\n-jobs 1:\n%s-jobs 4:\n%s", interval, serial, parallel)
		}
		var want strings.Builder
		want.WriteString("time_ns,batch,units_total,units_done_total,units_work_total\n")
		rows := 0
		work := 0
		for i := 0; i < n; i++ {
			work += 10 * i
			if i%interval == 0 {
				fmt.Fprintf(&want, "%d,%d,%d,%d,%d\n", i+1, i, n, i+1, work)
				rows++
			}
		}
		if serial != want.String() {
			t.Errorf("interval %d: series\n%s\nwant\n%s", interval, serial, want.String())
		}
		if wantLog := fmt.Sprintf("wrote %d metric samples to ", rows); !strings.HasPrefix(log, wantLog) {
			t.Errorf("interval %d: log %q, want prefix %q", interval, log, wantLog)
		}
	}
}

// TestProgressOffWithoutFlags checks that a harness run with no obs flag
// set records nothing and writes nothing.
func TestProgressOffWithoutFlags(t *testing.T) {
	var log bytes.Buffer
	p, err := (&obs.Flags{}).StartProgress(&log, 3, obs.ProgressMetrics{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Collect(i, 1, "units", "unit", "u", time.Millisecond)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.Done() != 3 || log.Len() != 0 {
		t.Errorf("Done() = %d, log %q; want 3 and no output", p.Done(), log.String())
	}
}
