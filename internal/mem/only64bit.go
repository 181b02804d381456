//go:build 386 || arm || mips || mipsle

// The module is 64-bit only: page, run and record arithmetic assume a
// 64-bit int (warp-program run lengths reach math.MaxUint32, and the
// batch-record layout is sized for 64-bit words). Every simulator package
// imports mem, so a 32-bit GOARCH stops here, naming the requirement,
// instead of deep inside one of them.

package mem

var _ = guvm_requires_a_64_bit_GOARCH
