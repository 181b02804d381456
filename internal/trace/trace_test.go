package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestBatchRecordDerivedMetrics(t *testing.T) {
	b := BatchRecord{
		Start:     1000,
		End:       11000,
		Type1Dups: 3,
		Type2Dups: 2,
		TTransfer: 2500,
		TUnmap:    1000,
		TDMAMap:   500,
	}
	if b.Duration() != 10000 {
		t.Fatalf("Duration = %d", b.Duration())
	}
	if b.DupFaults() != 5 {
		t.Fatalf("DupFaults = %d", b.DupFaults())
	}
	for _, c := range []struct {
		stage int
		want  float64
	}{{StageTransfer, 0.25}, {StageUnmap, 0.1}, {StageDMAMap, 0.05}} {
		if got := b.Share(c.stage); got != c.want {
			t.Fatalf("Share(%s) = %v, want %v", StageNames[c.stage], got, c.want)
		}
	}
}

func TestBatchRecordZeroDuration(t *testing.T) {
	var b BatchRecord
	for k := 0; k < NumStages; k++ {
		if b.Share(k) != 0 {
			t.Fatalf("zero-duration Share(%s) not zero", StageNames[k])
		}
	}
}

// TestStagesPartition checks the decomposition of a driver-shaped record:
// setup, fetch, dedup, the service window and replay sum to the duration,
// and service_other is the window the component timers leave uncovered.
func TestStagesPartition(t *testing.T) {
	b := BatchRecord{Start: 1000, End: 2000, TSetup: 100, TFetch: 200, TDedup: 50,
		TReplay: 150, TBlockMgmt: 100, TTransfer: 300}
	st := b.Stages()
	want := [NumStages]sim.Time{StageSetup: 100, StageFetch: 200, StageDedup: 50,
		StageBlockMgmt: 100, StageTransfer: 300, StageReplay: 150, StageOther: 100}
	if st != want {
		t.Fatalf("Stages = %v, want %v", st, want)
	}
	var sum sim.Time
	for _, d := range st {
		sum += d
	}
	if sum != b.Duration() {
		t.Fatalf("stages sum to %d, want %d", sum, b.Duration())
	}
}

// TestStagesNegativeResidualFoldsIntoSetup: when setup, fetch, dedup and
// replay exceed the duration, the deficit comes out of setup, so the
// top-level phases still sum to End-Start.
func TestStagesNegativeResidualFoldsIntoSetup(t *testing.T) {
	b := BatchRecord{Start: 0, End: 500, TSetup: 100, TFetch: 300, TDedup: 50, TReplay: 100}
	st := b.Stages()
	if st[StageSetup] != 50 {
		t.Fatalf("setup = %d, want 100 - 50 deficit = 50", st[StageSetup])
	}
	if st[StageOther] != 0 {
		t.Fatalf("service_other = %d, want 0", st[StageOther])
	}
	if got := st[StageSetup] + st[StageFetch] + st[StageDedup] + st[StageReplay]; got != b.Duration() {
		t.Fatalf("phases sum to %d, want %d", got, b.Duration())
	}
}

// TestStagesOtherClampsUnderParallelOverflow: with parallel service the
// serial component timers can exceed the service window; service_other
// clamps at 0 instead of going negative.
func TestStagesOtherClampsUnderParallelOverflow(t *testing.T) {
	b := BatchRecord{Start: 0, End: 1000, TSetup: 100, TFetch: 100, TDedup: 100,
		TReplay: 100, TTransfer: 500, TUnmap: 300}
	st := b.Stages()
	if st[StageOther] != 0 {
		t.Fatalf("service_other = %d, want 0 when components (800) overflow the window (600)", st[StageOther])
	}
	if st[StageSetup] != 100 || st[StageTransfer] != 500 || st[StageUnmap] != 300 {
		t.Fatalf("Stages = %v", st)
	}
}

func TestCollectorAddBatchAssignsIDs(t *testing.T) {
	c := &Collector{}
	for i := 0; i < 5; i++ {
		id := c.AddBatch(BatchRecord{Start: sim.Time(i), End: sim.Time(i + 1)})
		if id != i {
			t.Fatalf("AddBatch id = %d, want %d", id, i)
		}
	}
	if len(c.Batches) != 5 {
		t.Fatalf("batches = %d", len(c.Batches))
	}
}

func TestCollectorSpanRetention(t *testing.T) {
	spans := []mem.Span{{First: 0, Count: 4}, {First: 9, Count: 1}}
	c := &Collector{}
	c.AddSpans(0, spans)
	if c.Spans != nil || c.SpanBatch != nil {
		t.Fatal("spans retained without KeepSpans")
	}
	c.KeepSpans = true
	c.AddSpans(3, spans)
	if len(c.Spans) != 2 || len(c.SpanBatch) != 2 || c.SpanBatch[1] != 3 {
		t.Fatalf("spans %v batches %v, want both spans of batch 3", c.Spans, c.SpanBatch)
	}
}

func TestCollectorFaultRetention(t *testing.T) {
	c := &Collector{}
	c.AddFaults(0, []gpu.Fault{{Page: 1}})
	if len(c.Faults) != 0 {
		t.Fatal("faults retained without KeepFaults")
	}
	c.KeepFaults = true
	c.AddFaults(1, []gpu.Fault{{Page: 1}, {Page: 2}})
	if len(c.Faults) != 2 || len(c.FaultBatch) != 2 || c.FaultBatch[1] != 1 {
		t.Fatalf("fault retention wrong: %v %v", c.Faults, c.FaultBatch)
	}
}

func TestWriteBatchesCSV(t *testing.T) {
	batches := []BatchRecord{
		{ID: 0, Start: 100, End: 400, RawFaults: 10, BytesMigrated: 4096},
		{ID: 1, Start: 500, End: 900, Type1Dups: 2},
	}
	var sb strings.Builder
	if err := WriteBatchesCSV(&sb, batches, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,start_ns") {
		t.Fatalf("header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,100,400,300,10,") {
		t.Fatalf("row 0 wrong: %s", lines[1])
	}
	// Column count matches header.
	if got, want := strings.Count(lines[1], ","), strings.Count(lines[0], ","); got != want {
		t.Fatalf("row has %d commas, header %d", got, want)
	}
}

func TestWriteFaultsJSONL(t *testing.T) {
	faults := []gpu.Fault{
		{Time: 100, Page: 42, SM: 3, UTLB: 1, Kind: gpu.AccessRead},
		{Time: 200, Page: 43, Kind: gpu.AccessWrite, Dup: true},
	}
	var sb strings.Builder
	if err := WriteFaultsJSONL(&sb, faults, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["page"].(float64) != 42 || rec["kind"].(string) != "read" {
		t.Fatalf("record = %v", rec)
	}
	var rec2 map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2["dup"].(bool) != true || rec2["batch"].(float64) != 1 {
		t.Fatalf("record2 = %v", rec2)
	}
}

func TestWriteFaultsJSONLMisaligned(t *testing.T) {
	var sb strings.Builder
	if err := WriteFaultsJSONL(&sb, []gpu.Fault{{}}, nil); err == nil {
		t.Fatal("misaligned inputs accepted")
	}
}
