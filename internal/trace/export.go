package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"guvm/internal/gpu"
)

// batchCSVHeader lists the exported per-batch columns.
const batchCSVHeader = "id,start_ns,end_ns,duration_ns,raw_faults,unique_pages," +
	"type1_dups,type2_dups,stale_pages,vablocks,pages_migrated,bytes_migrated," +
	"prefetched_pages,evictions,evicted_bytes,unmap_pages,new_dma_blocks," +
	"t_fetch_ns,t_dedup_ns,t_blockmgmt_ns,t_populate_ns,t_pagetable_ns," +
	"t_dmamap_ns,t_unmap_ns,t_transfer_ns,t_evict_ns,t_replay_ns\n"

// injectCSVColumns are the injected-fault columns appended when the run
// injects software faults; the default export omits them so uninjected
// runs see a bit-identical file.
const injectCSVColumns = ",inj_mig_failures,inj_host_alloc_fails"

// WriteBatchesCSV streams batch records as CSV — the same per-batch log
// the paper's instrumented driver emitted to the system log, in a form
// external plotting tools consume directly. With injectCols it appends
// the injected-fault columns (per-batch injected migration failures and
// host allocation failures).
func WriteBatchesCSV(w io.Writer, batches []BatchRecord, injectCols bool) error {
	header := batchCSVHeader
	if injectCols {
		header = batchCSVHeader[:len(batchCSVHeader)-1] + injectCSVColumns + "\n"
	}
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	for i := range batches {
		b := &batches[i]
		_, err := fmt.Fprintf(w,
			"%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			b.ID, b.Start, b.End, b.Duration(), b.RawFaults, b.UniquePages,
			b.Type1Dups, b.Type2Dups, b.StalePages, b.VABlocks, b.PagesMigrated,
			b.BytesMigrated, b.PrefetchedPages, b.Evictions, b.EvictedBytes,
			b.UnmapPages, b.NewDMABlocks,
			b.TFetch, b.TDedup, b.TBlockMgmt, b.TPopulate, b.TPageTable,
			b.TDMAMap, b.TUnmap, b.TTransfer, b.TEvict, b.TReplay)
		if err != nil {
			return err
		}
		if injectCols {
			if _, err := fmt.Fprintf(w, ",%d,%d", b.InjMigFailures, b.InjHostAllocFails); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// faultJSON is the export shape of one fault record.
type faultJSON struct {
	Batch int    `json:"batch"`
	Time  int64  `json:"time_ns"`
	Page  uint64 `json:"page"`
	SM    int    `json:"sm"`
	UTLB  int    `json:"utlb"`
	Warp  int    `json:"warp"`
	Block int    `json:"block"`
	Kind  string `json:"kind"`
	Dup   bool   `json:"dup"`
}

// WriteFaultsJSONL streams fault records as JSON lines (one object per
// fault), paired with the batch that fetched each. faultBatch must align
// with faults, as produced by a Collector with KeepFaults.
func WriteFaultsJSONL(w io.Writer, faults []gpu.Fault, faultBatch []int) error {
	if len(faults) != len(faultBatch) {
		return fmt.Errorf("trace: %d faults but %d batch ids", len(faults), len(faultBatch))
	}
	enc := json.NewEncoder(w)
	for i, f := range faults {
		rec := faultJSON{
			Batch: faultBatch[i],
			Time:  int64(f.Time),
			Page:  uint64(f.Page),
			SM:    f.SM,
			UTLB:  f.UTLB,
			Warp:  int(f.Warp),
			Block: int(f.Block),
			Kind:  f.Kind.String(),
			Dup:   f.Dup,
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}
