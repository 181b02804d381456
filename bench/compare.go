package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// selfFracTolerance is how far a layer's self_frac may move between two
// result sets of the same code before it is flagged.
const selfFracTolerance = 0.03

// runCompare compares two result sets, each one or more -out files of
// the same benchmark (comma-separated). For each workload and end-to-end
// metric it prints both sides' median and quartiles and classifies the
// pair by the metric's bound: unresolved when either side's interquartile
// range exceeds the bound, else worse or improved when the medians differ
// by more than the bound, else unchanged. A side of one file takes its
// quartiles over that run's ops; a side of several files over the runs'
// reported values. Per-layer counts and fingerprints that differ, and
// self_frac shares that move by more than selfFracTolerance, are flagged.
// It returns 1 when any pair is worse or anything is flagged.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two result sets: A.json[,...] B.json[,...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b []*report
		if b, err = loadSide(args[1]); err == nil {
			return compareSides(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func loadSide(list string) ([]*report, error) {
	var side []*report
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		side = append(side, &r)
	}
	return side, nil
}

func compareSides(w io.Writer, a, b []*report) int {
	status := 0
	flag := func(format string, args ...any) {
		fmt.Fprintf(w, "   FLAG "+format+"\n", args...)
		status = 1
	}
	for _, wa := range a[0].Workloads {
		wb := findReport(b[0], wa.Name)
		if wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", wa.Name)
		fmt.Fprintf(w, "   %-12s %-38s %-38s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
		for _, s := range endToEnd {
			ta, tb := sideTiming(a, wa.Name, s.Name), sideTiming(b, wa.Name, s.Name)
			if ta.N == 0 || tb.N == 0 {
				continue
			}
			v := classify(ta, tb, s)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "   %-12s %-38s %-38s %s\n", s.Name, fmtTiming(ta), fmtTiming(tb), v)
		}
		ea, eb := sideErrorRate(a, wa.Name), sideErrorRate(b, wa.Name)
		fmt.Fprintf(w, "   %-12s %-38g %-38g", "error_rate", ea, eb)
		if eb > ea {
			fmt.Fprintln(w, " worse")
			status = 1
		} else {
			fmt.Fprintln(w, " unchanged")
		}

		for _, side := range [][]*report{a, b} {
			for _, r := range side {
				if x := findReport(r, wa.Name); x != nil && x.Fingerprint != wa.Fingerprint {
					flag("fingerprint %s differs from %s", x.Fingerprint, wa.Fingerprint)
				}
			}
		}
		for _, m := range countMetrics {
			va, oka := wa.Metrics[m.Name]
			vb, okb := wb.Metrics[m.Name]
			if oka && okb && va.Value != vb.Value {
				flag("%s %v differs from %v", m.Name, vb.Value, va.Value)
			}
		}
		shares := []string{"runtime.gc_frac", "runtime.other_frac"}
		for _, l := range selfLayers {
			shares = append(shares, l+".self_frac")
		}
		for _, name := range shares {
			va, oka := wa.Metrics[name]
			vb, okb := wb.Metrics[name]
			if oka && okb && math.Abs(va.Value-vb.Value) > selfFracTolerance {
				flag("%s moved from %.3f to %.3f", name, va.Value, vb.Value)
			}
		}
	}
	return status
}

func findReport(r *report, name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// sideTiming gathers one metric's samples for a side: the per-op samples
// of a single run, or each run's reported value when there are several.
func sideTiming(side []*report, workload, metric string) timing {
	if len(side) == 1 {
		if wr := findReport(side[0], workload); wr != nil {
			if t, ok := wr.Timings[metric]; ok {
				if _, reported := wr.Metrics[metric]; reported {
					return t
				}
			}
		}
	}
	var xs []float64
	for _, r := range side {
		if wr := findReport(r, workload); wr != nil {
			if v, ok := wr.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return newTiming(xs)
}

func sideErrorRate(side []*report, workload string) float64 {
	var failed, attempted int
	for _, r := range side {
		if wr := findReport(r, workload); wr != nil {
			failed += wr.Failed
			attempted += wr.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// classify judges B against A for one metric by its bound.
func classify(a, b timing, s metricSpec) string {
	if a.relSpread() > s.Bound || b.relSpread() > s.Bound {
		return "unresolved"
	}
	d := ratio(b.Median-a.Median, math.Abs(a.Median))
	if s.Better == "higher" {
		d = -d
	}
	switch {
	case d > s.Bound:
		return "worse"
	case d < -s.Bound:
		return "improved"
	}
	return "unchanged"
}

func fmtTiming(t timing) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", t.Median, t.Q1, t.Q3)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
