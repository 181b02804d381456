package hostos

import (
	"errors"
	"fmt"
)

// ErrAllocFailed is the sentinel matched by errors.Is when a host page
// allocation (population) request fails — in the model, only via fault
// injection. The UVM driver reacts by degrading gracefully (shrinking its
// batch, forcing eviction pressure) and retrying rather than aborting.
var ErrAllocFailed = errors.New("hostos: page allocation failed")

// MaxThreads is the most CPU threads the VM tells apart: a mapping keeps
// the threads that touched it in a 64-bit mask.
const MaxThreads = 64

// ThreadCountError reports a host-thread count outside [1, MaxThreads].
// A larger count would alias threads in the mask and silently model
// MaxThreads or fewer.
type ThreadCountError struct {
	Threads int
}

func (e *ThreadCountError) Error() string {
	return fmt.Sprintf("hostos: %d host threads, want 1 to %d", e.Threads, MaxThreads)
}

// CheckThreads returns a *ThreadCountError when n is outside
// [1, MaxThreads], and nil otherwise.
func CheckThreads(n int) error {
	if n < 1 || n > MaxThreads {
		return &ThreadCountError{Threads: n}
	}
	return nil
}
