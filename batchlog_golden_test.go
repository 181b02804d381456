package guvm_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"guvm"
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/trace"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

var updateBatchLogGolden = flag.Bool("update-batchlog-golden", false,
	"rewrite testdata/batchlog.golden from the current build instead of comparing")

// batchLogRuns are the runs the batch-log golden freezes: demand paging on
// both stage graphs, an oversubscribed random run that prefetches and
// evicts (with and without cross-block migration), and a case-study run
// that keeps its serviced spans.
var batchLogRuns = []struct {
	name string
	cfg  func() guvm.SystemConfig
	w    func() workloads.Workload
}{
	{"stream host-driven prefetch-off", func() guvm.SystemConfig {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 64 << 20
		cfg.Driver.PrefetchEnabled = false
		return cfg
	}, func() workloads.Workload { return workloads.NewStream(8<<20, 24) }},
	{"stream access-counter prefetch-off", func() guvm.SystemConfig {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 64 << 20
		cfg.Driver.PrefetchEnabled = false
		cfg.Policies.Architecture = "access-counter"
		return cfg
	}, func() workloads.Workload { return workloads.NewStream(8<<20, 24) }},
	{"random oversubscribed tree/lru", func() guvm.SystemConfig {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 16 << 20
		return cfg
	}, func() workloads.Workload { return workloads.NewRandom(32<<20, 40, 100, 11) }},
	{"random oversubscribed cross-block", func() guvm.SystemConfig {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 16 << 20
		cfg.Policies.Prefetch = "cross-block"
		return cfg
	}, func() workloads.Workload { return workloads.NewRandom(32<<20, 40, 100, 11) }},
	{"gauss-seidel case study keep-spans", func() guvm.SystemConfig {
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 8 << 20
		cfg.KeepSpans = true
		cfg.Audit.Enabled = true
		return cfg
	}, func() workloads.Workload { return workloads.NewGaussSeidel(1536, 3) }},
}

// servicedLog copies each batch's serviced-block list from the driver at
// EndBatch, the one moment it is valid, indexed by batch.
type servicedLog struct {
	drv   *uvm.Driver
	lists [][]mem.VABlockID
}

func (l *servicedLog) EndBatch(_ int, _ *trace.BatchRecord, _ []gpu.Fault) {
	l.lists = append(l.lists, slices.Clone(l.drv.ServicedBlocks()))
}

// runBatchLog runs the named batch-log run and returns its result and
// each batch's serviced list.
func runBatchLog(t *testing.T, name string, cfg guvm.SystemConfig, w workloads.Workload) (*guvm.Result, [][]mem.VABlockID) {
	t.Helper()
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &servicedLog{drv: s.Driver}
	s.Driver.Observe(log)
	r, err := s.Run(w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(log.lists) != len(r.Batches) {
		t.Fatalf("%s: observer saw %d batches, the log holds %d", name, len(log.lists), len(r.Batches))
	}
	return r, log.lists
}

// batchLogHash hashes a run's batch log over an explicit field list, so
// the hash depends on the values logged and not on how a record stores
// them: every counter, byte count and timer of each record, then its
// evicted list, its serviced list (from serviced, indexed by batch) and
// its per-VABlock fault list, then the spans it serviced.
func batchLogHash(r *guvm.Result, serviced [][]mem.VABlockID) uint64 {
	h := fnv.New64a()
	spans := batchSpans(r)
	for i := range r.Batches {
		b := &r.Batches[i]
		putInts(h,
			int64(b.ID), int64(b.Start), int64(b.End),
			int64(b.RawFaults), int64(b.Type1Dups), int64(b.Type2Dups),
			int64(b.UniquePages), int64(b.StalePages), int64(b.VABlocks),
			int64(b.PagesMigrated), int64(b.BytesMigrated), int64(b.PrefetchedPages),
			int64(b.Evictions), int64(b.EvictedBytes), int64(b.UnmapPages),
			int64(b.NewDMABlocks), int64(b.InjMigFailures), int64(b.InjHostAllocFails),
			int64(b.TSetup), int64(b.TFetch), int64(b.TDedup), int64(b.TBlockMgmt),
			int64(b.TPopulate), int64(b.TPageTable), int64(b.TDMAMap), int64(b.TUnmap),
			int64(b.TTransfer), int64(b.TEvict), int64(b.TReplay))
		putInts(h, int64(len(b.EvictedBlocks)))
		for _, v := range b.EvictedBlocks {
			putInts(h, int64(v))
		}
		putInts(h, int64(len(serviced[i])))
		for _, v := range serviced[i] {
			putInts(h, int64(v))
		}
		putInts(h, int64(len(b.VABlockFaults)))
		for _, v := range b.VABlockFaults {
			putInts(h, int64(v))
		}
		putInts(h, int64(len(spans[i])))
		for _, sp := range spans[i] {
			putInts(h, int64(sp.First), int64(sp.Count))
		}
	}
	return h.Sum64()
}

// batchSpans returns each batch's serviced spans, indexed by batch.
func batchSpans(r *guvm.Result) [][]mem.Span {
	out := make([][]mem.Span, len(r.Batches))
	for i, sp := range r.Spans {
		out[r.SpanBatch[i]] = append(out[r.SpanBatch[i]], sp)
	}
	return out
}

func putInts(h hash.Hash64, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// TestBatchLogGolden freezes the batch log of each run in batchLogRuns:
// its batch count and the hash of every record, list and span. A change to
// how records are stored or built must reproduce it unchanged. Regenerate
// with -update-batchlog-golden only for a deliberate, explained behaviour
// change.
func TestBatchLogGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# run: batches batch-log-fnv64\n")
	for _, run := range batchLogRuns {
		r, serviced := runBatchLog(t, run.name, run.cfg(), run.w())
		if len(r.Batches) == 0 {
			t.Fatalf("%s: no batches", run.name)
		}
		fmt.Fprintf(&b, "%s: %d %016x\n", run.name, len(r.Batches), batchLogHash(r, serviced))
	}
	got := b.String()
	path := filepath.Join("testdata", "batchlog.golden")
	if *updateBatchLogGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-batchlog-golden to freeze): %v", err)
	}
	if got != string(want) {
		t.Fatalf("batch log diverged from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestBatchRecordLayout: a batch costs its log entry and one exact-size
// copy of each of its lists. The record stays within its 224 bytes and a
// fault record within 56, and on every batch-log run (the oversubscribed
// random runs evict and prefetch, so their lists are long) each list has
// len == cap and is nil when empty.
func TestBatchRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(trace.BatchRecord{}); got > 224 {
		t.Errorf("trace.BatchRecord is %d bytes, want at most 224", got)
	}
	if got := unsafe.Sizeof(gpu.Fault{}); got > 56 {
		t.Errorf("gpu.Fault is %d bytes, want at most 56", got)
	}
	for _, run := range batchLogRuns {
		r, _ := runBatchLog(t, run.name, run.cfg(), run.w())
		for i := range r.Batches {
			b := &r.Batches[i]
			checkExact(t, run.name, i, "EvictedBlocks", len(b.EvictedBlocks), cap(b.EvictedBlocks), b.EvictedBlocks == nil)
			checkExact(t, run.name, i, "VABlockFaults", len(b.VABlockFaults), cap(b.VABlockFaults), b.VABlockFaults == nil)
		}
	}
}

func checkExact(t *testing.T, run string, batch int, list string, n, c int, isNil bool) {
	t.Helper()
	if n != c {
		t.Errorf("%s batch %d: %s len %d cap %d, want an exact-size copy", run, batch, list, n, c)
	}
	if n == 0 && !isNil {
		t.Errorf("%s batch %d: empty %s is not nil", run, batch, list)
	}
}
