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
#    shared flag block (uvm.RegisterPolicyFlags) they must also not
#    re-declare the policy flags locally, so names and help text cannot
#    drift between tools.
for cli in uvmsim uvmsweep faultviz paperfigs sweepd; do
  if grep -qn 'Driver\.Eviction[[:space:]]*=' "cmd/$cli/main.go"; then
    fail "cmd/$cli sets Driver.Eviction directly; route it through Policies (the registry)"
  fi
  if grep -qn 'flag\.String("evict"\|flag\.String("arch"' "cmd/$cli/main.go"; then
    fail "cmd/$cli declares its own policy flags; use uvm.RegisterPolicyFlags / RegisterPolicyListFlags"
  fi
done

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

if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "lint: pipeline structure OK"
