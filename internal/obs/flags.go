package obs

// flags.go — the shared CLI flag surface of the obs layer. Every CLI in
// cmd/ registers the same five flags through RegisterFlags, so the flag
// names, defaults and help text cannot drift between tools. The
// artifact-writing tails of the CLIs are shared here too, and the harness
// CLIs' progress surface built from these flags is in progress.go.

import (
	"flag"
	"os"
)

// Flags holds the parsed common observability flags.
type Flags struct {
	// TraceOut writes a Chrome trace_event JSON of recorded spans.
	TraceOut string
	// MetricsCSV/MetricsJSON write the sampled metric time series.
	MetricsCSV  string
	MetricsJSON string
	// MetricsInterval samples every Nth batch (or sweep point / harness
	// unit for the wall-clock CLIs).
	MetricsInterval int
	// MetricsAddr serves the live endpoints (/metrics, /status, pprof).
	MetricsAddr string
}

// RegisterFlags registers the shared obs flag set on fs and returns the
// destination struct (read after fs.Parse).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON of recorded spans to this file")
	fs.StringVar(&f.MetricsCSV, "metrics-csv", "",
		"write the sampled metric time series as CSV to this file")
	fs.StringVar(&f.MetricsJSON, "metrics-json", "",
		"write the sampled metric time series as JSON to this file")
	fs.IntVar(&f.MetricsInterval, "metrics-interval", 1,
		"sample metrics every Nth batch/point (with -metrics-csv/-metrics-json/-metrics-addr)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve live /metrics, /status and pprof on this address (e.g. 127.0.0.1:9090; port 0 picks one)")
	return f
}

// SamplingRequested reports whether any flag needs the metrics sampler
// or registry publishing.
func (f *Flags) SamplingRequested() bool {
	return f.MetricsCSV != "" || f.MetricsJSON != "" || f.MetricsAddr != ""
}

// SampleEvery returns the sampling interval clamped to at least 1, so a
// stray -metrics-interval 0 cannot disable a sampler the other flags
// asked for.
func (f *Flags) SampleEvery() int {
	if f.MetricsInterval < 1 {
		return 1
	}
	return f.MetricsInterval
}

// Apply folds the flags into an obs simulation config: -trace-out turns
// on span tracing, and any metrics output enables sampling at the
// configured interval.
func (f *Flags) Apply(cfg *Config) {
	if f.TraceOut != "" {
		cfg.Trace = true
	}
	if f.SamplingRequested() {
		cfg.SampleInterval = f.SampleEvery()
	}
}

// WriteArtifacts writes whichever outputs the flags requested from the
// given tracer and sampler (either may be nil when its flag is unset).
// logf, when non-nil, receives one progress line per file written —
// CLIs pass fmt.Printf so the messages land on stdout as before.
func (f *Flags) WriteArtifacts(tr *Tracer, sm *Sampler, logf func(format string, args ...any) (int, error)) error {
	if logf == nil {
		logf = func(string, ...any) (int, error) { return 0, nil }
	}
	if f.TraceOut != "" {
		if err := writeTo(f.TraceOut, func(w *os.File) error {
			return WriteChromeTrace(w, tr)
		}); err != nil {
			return err
		}
		logf("wrote %d trace spans to %s\n", len(tr.Spans()), f.TraceOut)
	}
	if f.MetricsCSV != "" {
		if err := writeTo(f.MetricsCSV, func(w *os.File) error {
			return sm.WriteCSV(w)
		}); err != nil {
			return err
		}
		logf("wrote %d metric samples to %s\n", len(sm.Rows()), f.MetricsCSV)
	}
	if f.MetricsJSON != "" {
		if err := writeTo(f.MetricsJSON, func(w *os.File) error {
			return sm.WriteJSON(w)
		}); err != nil {
			return err
		}
		logf("wrote %d metric samples to %s\n", len(sm.Rows()), f.MetricsJSON)
	}
	return nil
}

// ProfileFlags holds the simulator CLIs' profiler flags (-profile,
// -profile-dir). Harness CLIs (uvmsweep, paperfigs, sweepd) do not run a
// single simulation, so they skip these.
type ProfileFlags struct {
	// Profile enables the fault-lifecycle attribution profiler; the
	// breakdown table prints to stdout after the run.
	Profile bool
	// ProfileDir additionally writes breakdown.csv, lifecycle.csv,
	// batches.csv and heat.csv into the directory (implies -profile).
	ProfileDir string
}

// RegisterProfileFlags registers the profiler flag pair on fs.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.BoolVar(&p.Profile, "profile", false,
		"attach the fault-lifecycle profiler and print the batch-time breakdown after the run")
	fs.StringVar(&p.ProfileDir, "profile-dir", "",
		"write profiler artifacts (breakdown/lifecycle/batches/heat CSVs) into this directory (implies -profile)")
	return p
}

// Enabled reports whether the profiler was requested.
func (p *ProfileFlags) Enabled() bool { return p.Profile || p.ProfileDir != "" }

// Apply folds the flags into an obs simulation config.
func (p *ProfileFlags) Apply(cfg *Config) {
	if p.Enabled() {
		cfg.Profile = true
	}
}

// profileArtifacts maps the artifact file names written into
// -profile-dir to their writers.
var profileArtifacts = []struct {
	name  string
	write func(*Profiler, *os.File) error
}{
	{"breakdown.csv", func(p *Profiler, w *os.File) error { return p.WriteBreakdownCSV(w) }},
	{"lifecycle.csv", func(p *Profiler, w *os.File) error { return p.WriteLifecycleCSV(w) }},
	{"batches.csv", func(p *Profiler, w *os.File) error { return p.WriteBatchesCSV(w) }},
	{"heat.csv", func(p *Profiler, w *os.File) error { return p.WriteHeatCSV(w) }},
}

// WriteArtifacts writes the profiler CSV set into ProfileDir (creating
// it), if one was requested. logf as in Flags.WriteArtifacts.
func (p *ProfileFlags) WriteArtifacts(prof *Profiler, logf func(format string, args ...any) (int, error)) error {
	if p.ProfileDir == "" || prof == nil {
		return nil
	}
	if logf == nil {
		logf = func(string, ...any) (int, error) { return 0, nil }
	}
	if err := os.MkdirAll(p.ProfileDir, 0o755); err != nil {
		return err
	}
	for _, a := range profileArtifacts {
		path := p.ProfileDir + string(os.PathSeparator) + a.name
		if err := writeTo(path, func(w *os.File) error { return a.write(prof, w) }); err != nil {
			return err
		}
		logf("wrote profile artifact %s\n", path)
	}
	return nil
}

// writeTo creates path, runs fn, and closes — surfacing the first error
// (including Close, which reports delayed write failures).
func writeTo(path string, fn func(*os.File) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
