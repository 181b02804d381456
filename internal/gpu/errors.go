package gpu

import "errors"

// ErrKernelRunning is returned by LaunchKernel while a kernel is already
// in flight; the device models one kernel at a time.
var ErrKernelRunning = errors.New("gpu: kernel already running")

// ErrBadKernel is returned by LaunchKernel for an unusable kernel
// description (e.g. a negative block count).
var ErrBadKernel = errors.New("gpu: invalid kernel")

// ErrDeviceDead is returned by LaunchKernel after Kill: a dead device
// accepts no more work.
var ErrDeviceDead = errors.New("gpu: device is dead")

// ErrBadProgram is the sentinel for a malformed warp program, found when
// its block starts: an unknown op kind, a read register outside
// 0..NumRegs-1, or a span outside the program's runs. It surfaces through
// the engine's terminal error, since blocks start inside event callbacks.
var ErrBadProgram = errors.New("gpu: invalid warp program")
