package gpu

import "testing"

// TestRecheckBufGrowsByDoubling: the replay scratch, filled the way
// Replay fills it, one fault entry's waiters at a time, copies itself
// about once, so the arrays it allocates along the way hold at most
// about twice its final capacity. Past 256 elements append's step falls
// from 2× toward 1.25×, and its arrays add up to 2.5 to 5 times the
// final capacity.
func TestRecheckBufGrowsByDoubling(t *testing.T) {
	const bound = 2.1
	for _, n := range []int{1000, 3000, 10000} {
		var buf []access
		allocated, last := 0, 0
		waiters := make([]access, 3)
		for i := range n {
			buf = appendDoubling(buf, waiters[:1+i%3])
			if cap(buf) != last {
				last = cap(buf)
				allocated += last
			}
		}
		if float64(allocated) > bound*float64(cap(buf)) {
			t.Errorf("replay scratch after %d entries: arrays of %d accesses in all, want at most %.1f × final capacity %d",
				n, allocated, bound, cap(buf))
		}
	}
}
