package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"guvm/internal/experiments"
)

// TestMain lets the test binary serve as its own worker process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec))
	}
	os.Exit(m.Run())
}

var (
	quickOnce sync.Once
	quickRep  *report
)

// quickReport runs the whole benchmark once in -quick mode, both passes.
func quickReport(t *testing.T) *report {
	t.Helper()
	quickOnce.Do(func() {
		quickRep = benchmark(options{seed: 11, trace: -1, quick: true})
	})
	return quickRep
}

// benchmarkFile is the subset of BENCHMARK.json the tool must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(catalog) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(f.Workloads), len(catalog))
	}
	for i, w := range catalog {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, catalog %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %+v\ncatalog %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalog")
	}
}

func TestExperimentIDsMatchGenerators(t *testing.T) {
	var ids []string
	for _, g := range experiments.All() {
		ids = append(ids, g.ID)
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Errorf("experiments.All() = %v, catalog lists %v", ids, experimentIDs)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestQuickRunEmitsExactlyTheCatalog checks that a -quick run reports
// every workload and metric named in BENCHMARK.json and nothing else,
// with valid names and units, correct outputs and in-range ratios.
func TestQuickRunEmitsExactlyTheCatalog(t *testing.T) {
	f := loadBenchmarkFile(t)
	rep := quickReport(t)
	if len(rep.Workloads) != len(f.Workloads) {
		t.Fatalf("quick run reported %d workloads, want %d", len(rep.Workloads), len(f.Workloads))
	}
	want := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), f.EndToEnd...), f.PerLayer...) {
		want[s.Name] = s.Unit
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
	}
	for i, wr := range rep.Workloads {
		if wr.Name != f.Workloads[i].Name || !nameRE.MatchString(wr.Name) {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, f.Workloads[i].Name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 || wr.ErrorRate != 0 {
			t.Errorf("%s: attempted %d failed %d: %v", wr.Name, wr.Attempted, wr.Failed, wr.Errors)
		}
		if len(wr.Fingerprint) != 16 {
			t.Errorf("%s: fingerprint %q", wr.Name, wr.Fingerprint)
		}
		got := map[string]string{}
		for name, v := range wr.Metrics {
			got[name] = v.Unit
		}
		if !reflect.DeepEqual(got, want) {
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: metric %s missing", wr.Name, name)
				}
			}
			for name, unit := range got {
				if u, ok := want[name]; !ok || u != unit {
					t.Errorf("%s: metric %s (%s) not in BENCHMARK.json as such", wr.Name, name, unit)
				}
			}
		}
		if r := wr.Metrics["uvm.useful_fault_ratio"].Value; r < 0 || r > 1 {
			t.Errorf("%s: uvm.useful_fault_ratio = %v, outside [0, 1]", wr.Name, r)
		}
		for _, s := range f.EndToEnd {
			if wr.Metrics[s.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.Name, s.Name, wr.Metrics[s.Name].Value)
			}
		}
		for pass, specs := range map[int][]metricSpec{0: f.EndToEnd, 1: f.PerLayer} {
			line := resultLine(wr, pass, true)
			if m := line["metrics"].(map[string]metricValue); len(m) != len(specs) {
				t.Errorf("%s: -trace %d line has %d metrics, want %d", wr.Name, pass, len(m), len(specs))
			}
		}
	}
}

// TestFingerprintControls is the positive and negative control of the
// output check: the same seed reproduces a fingerprint, audited or not,
// and another seed changes the seeded workload's.
func TestFingerprintControls(t *testing.T) {
	fp := func(name string, seed uint64, audit bool) string {
		t.Helper()
		w, _ := findWorkload(name)
		o, err := w.prepare(seed, true, audit)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.run(); err != nil {
			t.Fatal(err)
		}
		s, err := o.summary()
		if err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint
	}
	ref := fp("random-oversub", 11, true)
	if got := fp("random-oversub", 11, false); got != ref {
		t.Errorf("same seed: fingerprint %s, audited reference %s", got, ref)
	}
	if got := fp("random-oversub", 12, false); got == ref {
		t.Errorf("seed 12 reproduced seed 11's fingerprint %s", got)
	}
	if a, b := fp("stream-demand", 11, false), fp("stream-access-counter", 11, false); a == b {
		t.Errorf("two architectures share fingerprint %s", a)
	}
}

// fakeOp reports the fingerprint and run error it is given.
type fakeOp struct {
	fingerprint string
	err         error
}

func (o fakeOp) run() error                  { return o.err }
func (o fakeOp) summary() (opSummary, error) { return opSummary{Fingerprint: o.fingerprint}, nil }

// TestOutputCheckCountsFailures checks that an op whose output differs
// from the audited reference, or whose run fails, is a failed op.
func TestOutputCheckCountsFailures(t *testing.T) {
	var next fakeOp
	w := workload{name: "fake", prepare: func(uint64, bool, bool) (op, error) { return next, nil }}
	r := &workerResult{}
	cal := &calibrator{}
	for i, o := range []fakeOp{
		{fingerprint: "a"},                       // audited reference
		{fingerprint: "a"},                       // matches
		{fingerprint: "b"},                       // differs
		{fingerprint: "a", err: errors.New("x")}, // fails
	} {
		next = o
		measureOp(context.Background(), w, job{}, i == 0, cal, 1, r)
	}
	if r.Attempted != 4 || r.Failed != 2 || len(r.Errors) != 2 {
		t.Errorf("attempted %d failed %d errors %q; want 4 attempted, 2 failed", r.Attempted, r.Failed, r.Errors)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python gives these cut points.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}, [3]float64{3.5, 24, 160}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	run := metricSpec{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	tight := func(m float64) timing { return newTiming([]float64{m * 0.99, m, m * 1.01}) }
	for _, c := range []struct {
		a, b timing
		want string
	}{
		{tight(1), tight(1.05), "unchanged"},
		{tight(1), tight(1.2), "worse"},
		{tight(1), tight(0.8), "improved"},
		{tight(1), newTiming([]float64{0.7, 1, 1.3}), "unresolved"},
	} {
		if got := classify(c.a, c.b, run); got != c.want {
			t.Errorf("classify(%v, %v) = %s, want %s", c.a.Median, c.b.Samples, got, c.want)
		}
	}
}
