// Command paperfigs regenerates every table and figure of the paper's
// evaluation from the simulator, writing aligned tables, CSV series, and
// paper-vs-measured notes under an output directory.
//
// Experiments run on a worker pool (-jobs, default GOMAXPROCS): each
// generator drives its own simulation engine, and artifacts are collected
// in experiment order, so the written output is byte-identical at any
// -jobs value.
//
// Usage:
//
//	paperfigs [-out results] [-only fig09,table2] [-jobs 4] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"guvm/internal/experiments"
	"guvm/internal/obs"
	"guvm/internal/uvm"
)

func main() {
	out := flag.String("out", "results", "output directory")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "number of experiments to run concurrently")
	verbose := flag.Bool("v", false, "print tables and notes to stdout")
	// Shared obs flag set: -trace-out records the wall-clock harness trace
	// (one lane per experiment); the metrics flags publish/sample harness
	// progress.
	ofl := obs.RegisterFlags(flag.CommandLine)
	// Shared policy flag block: overrides reach every experiment's base
	// profile (-evict/-prefetch-policy/-batch-sizing/-arch/-list-policies).
	pol := uvm.RegisterPolicyFlags(flag.CommandLine)
	flag.Parse()

	if pol.HandleList(os.Stdout) {
		return
	}

	// Graceful drain: SIGINT/SIGTERM stops scheduling new experiments;
	// in-flight generators finish and their artifacts are still written,
	// so the output directory and NOTES.md hold a clean prefix of the run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Overrides reach experiments through the shared base profile; an
	// experiment that ablates a policy dimension still sweeps it (the
	// ablation overwrites that field). Unknown names are rejected here,
	// with the valid options, before any simulation runs.
	if err := experiments.SetPolicies(pol.Selection()); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}

	var gens []experiments.Generator
	if *only == "" {
		gens = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			g, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q\n", id)
				os.Exit(2)
			}
			gens = append(gens, g)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}

	// Opt-in harness trace (one lane per experiment) and progress
	// metrics, advanced only in the ordered collect callback.
	prog, err := ofl.StartProgress(os.Stdout, len(gens), obs.ProgressMetrics{
		Total: "guvm_experiments_total", TotalHelp: "Experiments in this run",
		Done: "guvm_experiments_done_total", DoneHelp: "Experiments completed",
	}, nil, func(done int) any {
		return map[string]any{"experiments": len(gens), "done": done}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}

	var summary strings.Builder
	var failed []string
	interrupted := experiments.RunParallel(ctx, gens, *jobs, func(r experiments.RunResult) {
		fmt.Printf("== %s: %s\n", r.Gen.ID, r.Gen.Title)
		prog.Collect(r.Index, r.Index+1, r.Gen.ID, "experiment", r.Gen.ID, r.Elapsed)
		if r.Err != nil {
			// One broken experiment must not take down the sweep: record
			// it, keep going, and exit non-zero at the end.
			fmt.Fprintf(os.Stderr, "paperfigs: experiment %s failed: %v\n", r.Gen.ID, r.Err)
			fmt.Fprintf(&summary, "## %s — %s\n\n- FAILED: %v\n\n", r.Gen.ID, r.Gen.Title, r.Err)
			failed = append(failed, r.Gen.ID)
			return
		}
		a := r.Artifact
		dir := filepath.Join(*out, a.ID)
		if err := writeArtifact(dir, a, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(&summary, "## %s — %s\n\n", a.ID, a.Title)
		for _, n := range a.Notes {
			fmt.Fprintf(&summary, "- %s\n", n)
			if *verbose {
				fmt.Println("  " + n)
			}
		}
		summary.WriteString("\n")
		fmt.Printf("   wrote %s (%d tables, %d series) in %v\n",
			dir, len(a.Tables), len(a.Series), r.Elapsed.Round(time.Millisecond))
	})
	notesFile := filepath.Join(*out, "NOTES.md")
	if err := os.WriteFile(notesFile, []byte(summary.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("== summary notes: %s\n", notesFile)
	if err := prog.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
	if interrupted != nil {
		// Partial artifacts and NOTES.md were flushed above; report the
		// truncation and exit non-zero so callers never mistake a drained
		// run for a complete one.
		fmt.Fprintf(os.Stderr, "paperfigs: interrupted (%v): output holds a partial run\n", interrupted)
		os.Exit(130)
	}
}

// writeArtifact renders one artifact's tables and series under dir.
func writeArtifact(dir string, a *experiments.Artifact, verbose bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tb := range a.Tables {
		name := filepath.Join(dir, fmt.Sprintf("table%d.txt", i))
		if err := os.WriteFile(name, []byte(tb.String()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(name[:len(name)-4]+".csv", []byte(tb.CSV()), 0o644); err != nil {
			return err
		}
		if verbose {
			fmt.Println(tb.String())
		}
	}
	for _, s := range a.Series {
		name := filepath.Join(dir, s.Title+".csv")
		if err := os.WriteFile(name, []byte(s.CSV()), 0o644); err != nil {
			return err
		}
		if verbose && len(s.Columns) >= 2 && len(s.Rows) > 1 {
			// Quick-look shape check in the terminal.
			fmt.Println(s.ASCIIPlot(s.Columns[0], s.Columns[1], 64, 12))
		}
	}
	return nil
}
