#!/bin/sh
# Fused multiply-add gate. On arm64, ppc64le, s390x and riscv64 the Go
# compiler may fuse x*y + z into one instruction that rounds once instead
# of twice, so a statistic computed there could differ in its last digits
# from amd64's, whose builds fuse nothing. The simulator rounds every
# product that feeds an add or subtract (an explicit float64(...)
# conversion forbids the fusion); this gate keeps it so. It cross-compiles
# every command for the four architectures and fails on any fused
# multiply-add instruction inside a guvm/... function. It needs only the
# Go toolchain, no network. Run from the repository root (scripts/check.sh
# and CI both do).
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for arch in arm64 ppc64le s390x riscv64; do
  mkdir -p "$tmp/$arch"
  GOOS=linux GOARCH="$arch" CGO_ENABLED=0 go build -o "$tmp/$arch/" ./cmd/...
  for bin in "$tmp/$arch"/*; do
    # An instruction line is tab-separated (position, address, encoding,
    # instruction); a TEXT line names the function the next lines are in.
    fused=$(go tool objdump -s '^guvm/' "$bin" | awk -F'\t' '
      /^TEXT / { split($0, t, " "); fn = t[2]; next }
      NF >= 7 {
        split($7, w, " ")
        if (w[1] ~ /^(FN?M(ADD|SUB)[A-Z]*|MADBR|MSDBR|MAEBR|MSEBR)$/) n[fn]++
      }
      END { for (f in n) printf "%s: %d\n", f, n[f] }' | sort)
    if [ -n "$fused" ]; then
      echo "fmacheck: $arch $(basename "$bin") fuses multiply-adds; wrap each product that feeds an add or subtract in float64(...):" >&2
      echo "$fused" | sed 's/^/  /' >&2
      status=1
    fi
  done
done
if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "fmacheck: no fused multiply-add in guvm code on arm64, ppc64le, s390x or riscv64"
