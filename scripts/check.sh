#!/bin/sh
# Full verification gate: vet, the structural lint, the fused multiply-add
# gate, build, the test suite under the race detector, and audited
# end-to-end runs of the paper's reference workloads. Run from the
# repository root (or via `make check`).
set -eux
go vet ./...
./scripts/lint.sh
./scripts/fmacheck.sh
go build ./...
go test -race ./...

# End-to-end audit gate: the Figure-3 (vecadd) and Figure-8 (stream)
# workloads must complete with the runtime invariant auditor checking
# every batch, and the stream run must produce bit-identical per-batch
# state digests across two runs, with and without the auditor checking
# beside the determinism verifier's recorder.
go run ./cmd/uvmsim -workload vecadd -audit > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -audit > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -verify-determinism > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -audit -verify-determinism > /dev/null

# Degraded-mode gate: the same stream run must stay audit-clean and
# digest-deterministic with the hardware fault domain engaged, alone and
# together with every software injection category, and the multi-GPU
# device-death drill must conserve every page and replay
# digest-identically under the same seed.
go run ./cmd/uvmsim -workload stream -mb 16 -audit -hw-fault > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -hw-fault -verify-determinism > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -audit -hw-fault -hw-kill-batch 3 > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -audit -hw-fault \
  -inject-drop-rate 0.02 -inject-mig-rate 0.02 -inject-host-rate 0.02 > /dev/null
go run ./cmd/uvmsim -workload stream -mb 16 -hw-fault -verify-determinism \
  -inject-drop-rate 0.02 -inject-mig-rate 0.02 -inject-host-rate 0.02 > /dev/null
go test -run 'TestMultiGPUDeviceDeathDrill|TestSingleDeviceKillRehomesPages' -count=1 .

# Observability gate: the audited vecadd Chrome trace must match the
# golden file byte-for-byte, and the live /metrics endpoint must serve a
# Prometheus exposition of a known counter from a running simulation.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/uvmsim -workload vecadd -audit -trace-out "$tmpdir/trace.json" > /dev/null
cmp testdata/vecadd_trace.golden.json "$tmpdir/trace.json"

# Profiler gate: the same audited vecadd run with the fault-lifecycle
# profiler attached must write the golden batch-time breakdown CSV
# byte-for-byte (proving both the attribution math and that profiling
# did not perturb the batch schedule the breakdown is derived from).
go run ./cmd/uvmsim -workload vecadd -audit -profile-dir "$tmpdir/prof" > /dev/null
cmp testdata/vecadd_breakdown.golden.csv "$tmpdir/prof/breakdown.csv"

# Sweep gate: a mixed policy grid through uvmsweep must match its golden
# CSV byte for byte.
go run ./cmd/uvmsweep -workload stream -mb 4 -batches 128,256 -caps 8,16 \
  -prefetch on,off -evict lru,fifo -arch host-driven,gpu-driven -jobs 2 > "$tmpdir/sweep.csv"
cmp testdata/uvmsweep_mixed.golden.csv "$tmpdir/sweep.csv"

# Progress-series gate: the sweep's sampled progress series is keyed by
# completed-point count, so its -metrics-csv must be byte-identical
# whether the points run on one worker or on four.
for jobs in 1 4; do
  go run ./cmd/uvmsweep -workload stream -mb 4 -batches 128,256 -caps 8,16 \
    -prefetch on,off -evict lru,fifo -arch host-driven,gpu-driven -jobs "$jobs" \
    -metrics-csv "$tmpdir/progress$jobs.csv" > /dev/null
done
cmp "$tmpdir/progress1.csv" "$tmpdir/progress4.csv"

# Results gate: the committed results/ must be exactly what a full
# paperfigs regeneration writes, so a change that moves an artifact
# commits it.
go run ./cmd/paperfigs -jobs 2 -out "$tmpdir/results" > /dev/null
diff -r results "$tmpdir/results"

go build -o "$tmpdir/uvmsim" ./cmd/uvmsim
"$tmpdir/uvmsim" -workload stream -mb 16 -metrics-addr 127.0.0.1:0 -metrics-hold 20s \
  > "$tmpdir/uvmsim.log" 2>&1 &
simpid=$!
addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's/^metrics: serving on //p' "$tmpdir/uvmsim.log")
  [ -n "$addr" ] && break
  sleep 0.2
done
[ -n "$addr" ]
# The first exposition is published at the first batch boundary; retry
# briefly so the probe cannot race the run's start.
ok=""
for _ in $(seq 1 50); do
  if curl -s "http://$addr/metrics" | grep -q '^guvm_driver_batches_total '; then
    ok=1
    break
  fi
  sleep 0.2
done
[ -n "$ok" ]
curl -s "http://$addr/status" | grep -q '"workload"'
kill "$simpid" 2> /dev/null || true
wait "$simpid" 2> /dev/null || true

# Architecture gate: every registered UVM architecture must complete the
# audited vecadd run (invariants hold under all three stage graphs), the
# two alternatives must be digest-deterministic, and the architecture
# comparison experiment must be byte-identical at -jobs 1 vs -jobs 8.
for arch in host-driven gpu-driven access-counter; do
  go run ./cmd/uvmsim -workload vecadd -audit -arch "$arch" > /dev/null
  go run ./cmd/uvmsim -workload vecadd -arch "$arch" -verify-determinism > /dev/null
done
go run ./cmd/paperfigs -only exp_architectures -out "$tmpdir/arch1" -jobs 1 > /dev/null
go run ./cmd/paperfigs -only exp_architectures -out "$tmpdir/arch8" -jobs 8 > /dev/null
diff -r "$tmpdir/arch1" "$tmpdir/arch8"

# Chaos gate: SIGKILL the sweep service mid-sweep; the restart must
# recover the journal, finish the job from cache, and produce digests
# identical to a fresh-store run.
./scripts/chaos.sh
