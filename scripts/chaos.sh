#!/bin/sh
# Chaos-recovery smoke for the sweepd service: start a daemon with slow
# point injection, submit a sweep grid, SIGKILL it mid-sweep, restart on
# the same store, and require (a) journal recovery with cache hits and
# (b) result digests identical to a daemon computing the same grid on a
# fresh store — the crash may cost time, never answers.
set -eu

tmpdir=$(mktemp -d)
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2> /dev/null || true; done
  for p in $pids; do wait "$p" 2> /dev/null || true; done
  rm -rf "$tmpdir"
}
trap cleanup EXIT

go build -o "$tmpdir/sweepd" ./cmd/sweepd

SPEC='{"workload":"stream","mb":1,"batches":[128,256],"caps_mb":[2,32]}'

# start_daemon log store [extra flags...]: launches sweepd, scrapes the
# bound address into $addr and the pid into $pid.
start_daemon() {
  log=$1
  dir=$2
  shift 2
  # Create the log before the daemon starts: the scrape below must not
  # race the background redirect that would otherwise create it.
  : > "$log"
  "$tmpdir/sweepd" -addr 127.0.0.1:0 -store "$dir" -jobs 2 "$@" > "$log" 2>&1 &
  pid=$!
  pids="$pids $pid"
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^sweepd: serving on //p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ]
}

# job_field url field: extracts a numeric field from a job status view.
job_field() {
  curl -s "$1" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

# digests url: the sorted (config digest, state digest) pairs of a job's
# result stream — the comparison key for bit-identity.
digests() {
  curl -s "$1" \
    | sed -n 's/.*"config_digest":"\([0-9a-f]*\)","state_digest":"\([0-9a-f]*\)".*/\1 \2/p' \
    | sort
}

# --- Phase 1: run into a SIGKILL mid-sweep -------------------------------
start_daemon "$tmpdir/a.log" "$tmpdir/store" \
  -inject-slow-rate 1 -inject-slow-delay 300ms
a_pid=$pid
a_addr=$addr

curl -s -o "$tmpdir/submit.json" -w '%{http_code}' \
  -d "$SPEC" "http://$a_addr/sweep/jobs" | grep -q '^202$'
grep -q '"id":"job-1"' "$tmpdir/submit.json"

# Wait for at least one durable point, but kill before the job finishes.
for _ in $(seq 1 200); do
  done_pts=$(job_field "http://$a_addr/sweep/jobs/job-1" completed)
  [ "${done_pts:-0}" -ge 1 ] && break
  sleep 0.05
done
[ "${done_pts:-0}" -ge 1 ]
curl -s "http://$a_addr/sweep/jobs/job-1" | grep -q '"state":"done"' && {
  echo "chaos: job finished before the kill; injection did not bite" >&2
  exit 1
}

kill -9 "$a_pid"
wait "$a_pid" 2> /dev/null || true

# --- Phase 2: restart on the same store, recover, finish ----------------
start_daemon "$tmpdir/b.log" "$tmpdir/store"
b_addr=$addr
grep -q 'recovered.*cached point' "$tmpdir/b.log"
grep -q 'resumed 1 incomplete job' "$tmpdir/b.log"

for _ in $(seq 1 200); do
  curl -s "http://$b_addr/sweep/jobs/job-1" | grep -q '"state":"done"' && break
  sleep 0.05
done
curl -s "http://$b_addr/sweep/jobs/job-1" | grep -q '"state":"done"'
cached=$(job_field "http://$b_addr/sweep/jobs/job-1" cached)
[ "${cached:-0}" -ge 1 ] # pre-kill work must have survived as cache hits

# The recovered daemon publishes sweepd metrics and a healthy healthz.
curl -s "http://$b_addr/metrics" | grep -q '^sweepd_points_cached_total [1-9]'
curl -s -o /dev/null -w '%{http_code}' "http://$b_addr/sweep/healthz" | grep -q '^200$'

digests "http://$b_addr/sweep/jobs/job-1/results" > "$tmpdir/recovered.digests"
[ "$(wc -l < "$tmpdir/recovered.digests")" -eq 4 ]

# --- Phase 3: same grid on a pristine store must match bit-for-bit ------
start_daemon "$tmpdir/c.log" "$tmpdir/fresh-store"
c_addr=$addr
curl -s -d "$SPEC" "http://$c_addr/sweep/jobs" > /dev/null
for _ in $(seq 1 200); do
  curl -s "http://$c_addr/sweep/jobs/job-1" | grep -q '"state":"done"' && break
  sleep 0.05
done
digests "http://$c_addr/sweep/jobs/job-1/results" > "$tmpdir/fresh.digests"
cmp "$tmpdir/recovered.digests" "$tmpdir/fresh.digests"

echo "chaos: kill -9 recovery preserved all $(wc -l < "$tmpdir/recovered.digests") digests"
