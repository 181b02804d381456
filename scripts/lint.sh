#!/bin/sh
# Structural lint for the staged batch pipeline (PR 5). The driver
# decomposition is load-bearing — digest goldens prove behaviour, this
# gate proves structure: every stage file exists, the driver core stays a
# core (no stage logic creeping back into driver.go), and policy knobs are
# selected through the registry, not poked directly from the CLIs.
# Run from the repository root (scripts/check.sh and CI both do).
set -eu

fail() { echo "lint: $*" >&2; status=1; }
status=0

# 1. The pipeline decomposition: one file per stage plus the shared
#    context/registry seams. A missing file means a refactor quietly
#    re-merged a stage into the monolith.
for f in pipeline.go fetch.go dedup.go prefetchplan.go residency.go \
         transfer.go replay.go registry.go; do
  [ -f "internal/uvm/$f" ] || fail "missing pipeline stage file internal/uvm/$f"
done

# 2. driver.go stays the thin core: construction, allocation API and
#    state. 500 lines is generous headroom over its current ~400; hitting
#    this bound means stage logic is accreting in the wrong file.
lines=$(wc -l < internal/uvm/driver.go)
if [ "$lines" -gt 500 ]; then
  fail "internal/uvm/driver.go is $lines lines (>500): stage logic belongs in the per-stage files"
fi

# 3. Stage entry points live in their stage files, not in driver.go, and
#    the stage graphs live in the architecture registry (arch.go) since
#    the PR-10 lift — pipeline.go only dispatches through d.arch.
for sym in 'dedupStage' 'serviceStage' 'crossBlockStage' 'replayStage' \
           'residencyStep' 'prefetchPlanStep' 'populateStep' 'transferStep' \
           'counterGateStep'; do
  if grep -q "func ($sym)" internal/uvm/driver.go 2>/dev/null; then
    fail "stage method $sym defined in driver.go; move it to its stage file"
  fi
done
[ -f internal/uvm/arch.go ] || fail "missing architecture registry internal/uvm/arch.go"
grep -q 'hostBatchStages' internal/uvm/arch.go || fail "arch.go lost the hostBatchStages stage graph"
grep -q 'hostBlockSteps' internal/uvm/arch.go || fail "arch.go lost the hostBlockSteps stage graph"
grep -q 'registerArchitecture' internal/uvm/arch.go || fail "arch.go lost registerArchitecture"

# 4. Hot-path structural guards. The delay-lane event queue and
#    the struct-of-arrays batch stages are load-bearing perf work; these
#    greps keep the easiest regressions from creeping back in.
#
#    4a. No non-test file under the engine or driver hot paths may
#    import container/heap — the lane queue's heap holds a few lanes,
#    not events, and is hand-rolled; the binary heap of events survives
#    only as the test oracle (internal/sim/lanequeue_test.go, the fuzz
#    target).
for pkg in internal/sim internal/uvm; do
  for f in "$pkg"/*.go; do
    case "$f" in *_test.go) continue ;; esac
    if grep -q '"container/heap"' "$f"; then
      fail "$f imports container/heap; the heap of events is test-oracle-only"
    fi
  done
done

#    4a2. The queue never sorts: pop order comes from the lanes, each
#    already sorted by (at, seq) because the clock only moves forward
#    (DESIGN.md §13). A sort or slices import in the queue file means
#    ordering work is creeping back in.
if grep -nE '"(sort|slices)"' internal/sim/lanequeue.go; then
  fail "internal/sim/lanequeue.go imports sort or slices; pop order comes from the lanes, never from sorting"
fi

#    4b. The per-batch stage files must not allocate maps: the dedup
#    rewrite replaced the per-batch map churn with sorted-key scans, and
#    a map reappearing in a stage file means the allocation diet is
#    regressing (TestBatchServiceAllocGuard would catch the count; this
#    names the culprit).
for f in internal/uvm/dedup.go internal/uvm/fetch.go internal/uvm/prefetchplan.go \
         internal/uvm/residency.go internal/uvm/transfer.go internal/uvm/replay.go; do
  if grep -qn 'make(map' "$f"; then
    fail "$f allocates a map; batch stages are struct-of-arrays (see dedup.go's sort-scan)"
  fi
done

# 5. Profiler hot-path guards (PR 9). The profiler's record path runs
#    inside the batch pipeline on every fault/batch; it must stay on the
#    allocation diet (no map allocation — heat lives in a BlockDir) and
#    in virtual time (no wall-clock reads in sim-time attribution).
if grep -qn 'make(map' internal/obs/profiler.go; then
  fail "internal/obs/profiler.go allocates a map; the record path is map-free (BlockDir + pooled slices)"
fi
if grep -qn 'time\.Now' internal/obs/profiler.go; then
  fail "internal/obs/profiler.go reads wall-clock time; attribution is sim-time only"
fi
for f in internal/uvm/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -qn 'time\.Now' "$f"; then
    fail "$f reads wall-clock time inside the sim-time driver"
  fi
done

# 6. Stage implementations stay architecture-agnostic (PR 10): all
#    architecture dispatch goes through the registry's stage/block-step
#    lists, so no stage file may branch on the selected architecture.
#    (arch.go itself declares the graphs; driver.go applies the payload
#    at construction — both are exempt.)
for f in internal/uvm/pipeline.go internal/uvm/fetch.go internal/uvm/dedup.go \
         internal/uvm/prefetchplan.go internal/uvm/residency.go \
         internal/uvm/transfer.go internal/uvm/replay.go; do
  if grep -qn 'cfg\.Architecture\|\.arch\.info\.Name\|Architecture ==' "$f"; then
    fail "$f branches on the selected architecture; stages must stay architecture-agnostic (dispatch via arch.go)"
  fi
done

# 7. CLIs select policies by registry name (SystemConfig.Policies), never
#    by writing the eviction knob directly — direct writes bypass the
#    unknown-name validation and the -list-policies contract. Since the
#    shared flag blocks (uvm.RegisterPolicyFlags for one choice per
#    dimension, sweep.RegisterFlags for the sweep grid's lists) they must
#    also not re-declare the policy flags locally, so names and help text
#    cannot drift between tools. The cross-block scope is the
#    "cross-block" policy's constant, so no CLI takes it as a flag.
for cli in uvmsim uvmsweep paperfigs sweepd; do
  if grep -qn 'Driver\.Eviction[[:space:]]*=' "cmd/$cli/main.go"; then
    fail "cmd/$cli sets Driver.Eviction directly; route it through Policies (the registry)"
  fi
  if grep -qn 'flag\.String("evict"\|flag\.String("arch"' "cmd/$cli/main.go"; then
    fail "cmd/$cli declares its own policy flags; use uvm.RegisterPolicyFlags, or sweep.RegisterFlags for a sweep grid"
  fi
done
if grep -rn 'xblock-prefetch' cmd; then
  fail "cmd/ brings back -xblock-prefetch; the cross-block scope is the \"cross-block\" prefetch policy's"
fi

# 8. One simulator, N devices: the single-GPU system is the N=1 case of
#    the multi-GPU one, so the root package keeps a single construction
#    path (one driver constructor call, one engine) and no separate
#    multi-GPU copy.
[ -f multigpu.go ] && fail "multigpu.go is back; multi-GPU is Simulator with N devices (guvm.go)"
for call in 'uvm.NewDriver(' 'sim.NewEngine()'; do
  n=$(cat $(ls *.go | grep -v '_test\.go$') | grep -cF "$call" || true)
  if [ "$n" -ne 1 ]; then
    fail "root non-test files contain $n $call calls, want exactly 1 (one construction path)"
  fi
done

# 9. Access completions go through completion groups (DESIGN.md §13.1):
#    one engine event per same-instant run of completions, not one per
#    page. No non-test GPU file may schedule a satisfy callback itself;
#    Device.complete is the only path.
for f in internal/gpu/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE '\.(Schedule|ScheduleArg|At|AtArg)\(.*satisfy' "$f"; then
    fail "$f schedules an access completion directly; route it through Device.complete (completion groups)"
  fi
done

# 10. Residency planning runs on words (DESIGN.md §13.2): the tree
#     prefetcher counts and promotes whole 64-bit words of the page set,
#     never single pages, and eviction's victim list is pooled batch
#     scratch, not a slice grown afresh for every eviction.
if grep -nE '\.(Has|Set)\(' internal/uvm/prefetch.go; then
  fail "internal/uvm/prefetch.go probes or sets single pages; the tree runs on words (DESIGN.md §13.2)"
fi
if grep -nE '(var[[:space:]]+candidates([^[:alnum:]_]|$)|candidates[[:space:]]*:=)' internal/uvm/residency.go; then
  fail "internal/uvm/residency.go declares a local candidates slice; victim lists are pooled in batchScratch.candidates (DESIGN.md §13.2)"
fi

# 11. The GPU event path holds no maps (DESIGN.md §13.3): pending faults
#     live in per-µTLB insertion-ordered tables with an open-addressed
#     page index, and the access counters in a mem.BlockDir. The map+order
#     table survives only as the test oracle (internal/gpu/program_test.go).
#     Nor does it keep access records for resident pages (DESIGN.md
#     §13.1): the device asks residency a run at a time (ResidentRun, not
#     a per-page IsResidentOnGPU), and only an access that waits on a
#     fault is a record, held by value, never a pooled *access.
for f in internal/gpu/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nF 'map[' "$f"; then
    fail "$f uses a map; the GPU event path is map-free (DESIGN.md §13.3)"
  fi
  if grep -nE '\*access([^[:alnum:]_]|$)|accFree|IsResidentOnGPU' "$f"; then
    fail "$f keeps per-page access records or queries; resident runs are counts and waiters are values (DESIGN.md §13.1)"
  fi
done

# 12. One representation per policy: a policy name lives only in
#     uvm.PolicySelection (SystemConfig.Policies), which NewDriver
#     resolves once. uvm.Config keeps parameters, never a second copy of
#     a name or a knob that duplicates one, and nothing maps a selection
#     back onto config knobs. The prefetch scope is the registry entry's
#     value (no CrossBlockPrefetch knob anywhere), and PrefetchEnabled
#     only picks the name an empty selection defaults to: outside tests,
#     only bench/ assigns it.
if grep -nE '^[[:space:]]+(Eviction|Architecture|BatchSizing|AdaptiveBatch|Upgrade64K)[[:space:]]' internal/uvm/config.go; then
  fail "internal/uvm/config.go declares a policy field; policy names live only in uvm.PolicySelection"
fi
for f in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'); do
  if grep -nF 'PolicySelection) Apply' "$f"; then
    fail "$f defines PolicySelection.Apply; NewDriver resolves the selection, nothing rewrites Config from it"
  fi
  if grep -nE 'PrefetchEnabled[[:space:]]*=([^=]|$)' "$f"; then
    fail "$f assigns PrefetchEnabled; select the prefetch policy by name (Policies.Prefetch)"
  fi
done
for f in $(find . -name '*.go' ! -path './bench/*' ! -path './.bench_build/*'); do
  if grep -nE '(^|[^[:alnum:]_])CrossBlockPrefetch([^[:alnum:]_]|$)' "$f"; then
    fail "$f names the CrossBlockPrefetch knob; the cross-block scope is the \"cross-block\" prefetch policy's"
  fi
done

# 13. One batch-time decomposition, one driver observer seam (DESIGN.md
#     §14): trace.BatchRecord.Stages is the only place a batch's time is
#     split, so no non-test obs or analysis file reads a record's stage
#     timers, and the driver's retired hook seams stay gone — observers
#     attach through Driver.Observe.
for f in internal/obs/*.go internal/analysis/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE '\.T(Setup|Fetch|Dedup|BlockMgmt|DMAMap|Unmap|Populate|Transfer|PageTable|Evict|Replay)([^[:alnum:]_]|$)' "$f"; then
    fail "$f reads a batch record's stage timer; read rec.Stages() (the split lives in internal/trace)"
  fi
done
for f in $(find . -name '*.go' ! -path './bench/*' ! -path './.bench_build/*'); do
  if grep -nE '(^|[^[:alnum:]_])(PipelineProfiler|SetProfiler|AddBatchObserver|SetBatchSetupCost)([^[:alnum:]_]|$)' "$f"; then
    fail "$f names a retired driver hook seam; attach observers with Driver.Observe"
  fi
done

# 14. One definition of model state (DESIGN.md §8): each model's Digest
#     and Dump read its live state in place, so the copying AuditState
#     snapshots (and the host VM's MappingAudit records) stay gone from
#     every Go file, tests included.
for f in $(find . -name '*.go' ! -path './.bench_build/*'); do
  if grep -nwE 'AuditState|MappingAudit' "$f"; then
    fail "$f brings back an AuditState snapshot; read the live model in place (Digest, Dump, VisitBlocks)"
  fi
done

# 15. One home for the sweep grid: internal/sweep owns the spec, its
#     flags, the grid expansion and the point runner. The sweep service
#     is a front end over it, so nothing below the service, and not the
#     CSV front end, may depend on the service.
for f in cmd/uvmsweep/*.go internal/uvm/*.go internal/sweep/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nF '"guvm/internal/sweepd' "$f"; then
    fail "$f imports guvm/internal/sweepd; sweep grids come from internal/sweep"
  fi
done

# 16. One looper (DESIGN.md §13.6): generators fold repeated chunks into
#     loops only through internal/workloads/looper.go, the hand-rolled
#     splits it replaced stay gone, and no program is pre-sized by a chunk
#     count (that storage would grow with the grid).
for f in internal/workloads/*.go; do
  case "$f" in *_test.go|internal/workloads/looper.go) continue ;; esac
  if grep -nF '.Loop(' "$f"; then
    fail "$f builds a loop by hand; fold repeated chunks with the looper (internal/workloads/looper.go)"
  fi
done
for f in internal/workloads/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE '(^|[^[:alnum:]_])(sweepChunks|panelStep)([^[:alnum:]_]|$)' "$f"; then
    fail "$f brings back a hand-rolled loop builder; the looper replaced it"
  fi
  if grep -niE 'gpu\.NewProgram\([^)]*chunk' "$f"; then
    fail "$f sizes a program by a chunk count; let the looper size it"
  fi
done

# 17. The auditor only checks (DESIGN.md §8): per-batch digests and dumps
#     are the Recorder's, and only the determinism verifier attaches one,
#     so an audited or plain run costs time linear in its size. The
#     snapshot settings it replaced stay gone.
for f in internal/audit/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE '(^|[^[:alnum:]_])(Interval|KeepDumps)([^[:alnum:]_]|$)|(^|[^[:alnum:]_])Active\(\)' "$f"; then
    fail "$f brings back an audit snapshot setting; per-batch digests belong to the Recorder"
  fi
done
if grep -rnF 'audit-interval' cmd; then
  fail "cmd/ brings back -audit-interval; only -verify-determinism records per-batch digests"
fi
for f in $(find . -name '*.go' ! -name '*_test.go' ! -path './determinism.go'); do
  if grep -nF 'audit.Record(' "$f"; then
    fail "$f attaches a Recorder; only the determinism verifier (determinism.go) records per batch"
  fi
done

# 18. One fault-injection domain (DESIGN.md §7): faultinject.Injector
#     draws every simulated fault, software and hardware, under one
#     Config and one seed, so the separate hardware injector, its config,
#     stats and wiring call stay gone, and so do the flags that only
#     served them.
for f in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); do
  if grep -nE '(^|[^[:alnum:]_])(HardwareInjector|HardwareConfig|DefaultHardwareConfig|HardwareStats|NewHardware|SetHardware|HWStats)([^[:alnum:]_]|$)|\.HW([^[:alnum:]_]|$)|^[[:space:]]+HW[[:space:]]' "$f"; then
    fail "$f brings back the separate hardware injector; hardware faults are faultinject.Injector's"
  fi
done
if grep -rnE 'hw-seed|csv-inject' cmd; then
  fail "cmd/ brings back -hw-seed or -csv-inject; -inject-seed seeds every fault and -csv derives its columns"
fi

# 19. One workload catalog: a name becomes a workload only in
#     workloads.ByName (internal/workloads/catalog.go), so no CLI builds
#     a workload with a constructor of its own.
for f in cmd/*/main.go; do
  if grep -nF 'workloads.New' "$f"; then
    fail "$f constructs a workload directly; resolve names through workloads.ByName"
  fi
done

# 20. The DMA radix tree records presence only (DESIGN.md §13.4): the
#     host VM stores 0 under every mapped page, so its leaves allocate no
#     value arrays, and derives the DMA address span from the page count
#     instead of keeping an address cursor.
if grep -rnE '(^|[^[:alnum:]_])dmaNext([^[:alnum:]_]|$)' internal/hostos; then
  fail "internal/hostos brings back the dmaNext address cursor; the DMA span follows from DMAPagesMapped"
fi
if grep -nF 'dma.Insert(' internal/hostos/vm.go | grep -vE 'dma\.Insert\([^,]+, 0\)'; then
  fail "internal/hostos/vm.go stores a non-zero value in the DMA radix tree; it records presence only"
fi

# 21. The event engine runs one simulation (DESIGN.md §13): a run ends
#     when its queue drains or Fail records an error, and the engine keeps
#     nothing for a later run, so the partial-run API (RunUntil, Stop,
#     absolute-time At/AtArg) and the run-exit trimming stay gone. The
#     engine's one deferred recover is the only one on a run's path.
for f in internal/sim/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE 'RunUntil|PopMinUntil|trimFree|maxFreeEvents|maxIdle|func \([[:alnum:]_]+ \*Engine\) (Stop|At|AtArg)\(' "$f"; then
    fail "$f brings back partial-run or run-exit machinery; the engine runs one simulation"
  fi
done
if grep -nF 'recover()' guvm.go; then
  fail "guvm.go recovers panics itself; Engine.Run already turns a callback panic into the run's error"
fi

# 22. An audit report is detached from its auditor (DESIGN.md §13.7):
#     Finish hands back a copy, so a kept guvm.Result pins no engine,
#     driver, device or host VM. No non-test audit file returns the
#     address of an Auditor field.
for f in internal/audit/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -nE 'return &a\.' "$f"; then
    fail "$f returns the address of an Auditor field; hand back a detached copy so a kept report does not pin the simulator"
  fi
done

# 23. A batch costs its log entry and nothing more (DESIGN.md §13.7): the
#     per-SM fault histogram, which only a check that held by construction
#     read, stays gone, and the fetch and replay stages schedule funcs the
#     driver bound once, not a closure allocated per batch.
for f in $(find . -name '*.go' ! -path './.bench_build/*'); do
  if grep -nw 'FaultsPerSM' "$f"; then
    fail "$f brings back FaultsPerSM; Table 2 reads RawFaults/NumSMs and the audit checks the per-VABlock histogram"
  fi
done
for f in internal/uvm/fetch.go internal/uvm/replay.go; do
  if grep -nE 'Schedule\(.*func\(\) \{' "$f"; then
    fail "$f schedules a closure per batch; schedule a func bound once in NewDriver"
  fi
done

if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "lint: pipeline structure OK"
