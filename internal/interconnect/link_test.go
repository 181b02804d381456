package interconnect

import (
	"testing"
	"testing/quick"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestTransferBytesCost(t *testing.T) {
	l := NewLink(Config{BandwidthBytesPerSec: 1e9, OpLatency: 1000, CopyEngines: 1})
	// 1 GB/s → 1 byte/ns; 4096 bytes = 4096 ns + 1000 ns latency.
	got := l.TransferBytes(4096, true)
	if got != 5096 {
		t.Fatalf("cost = %d, want 5096", got)
	}
	st := l.Stats()
	if st.BytesToGPU != 4096 || st.Ops != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransferSpansCoalescingCheaper(t *testing.T) {
	cfg := DefaultPCIe3x16()
	l1 := NewLink(cfg)
	l2 := NewLink(cfg)
	// Same total bytes: one 64-page span vs 64 single-page spans.
	one := []mem.Span{{First: 0, Count: 64}}
	var many []mem.Span
	for i := 0; i < 64; i++ {
		many = append(many, mem.Span{First: mem.PageID(i * 2), Count: 1})
	}
	c1 := l1.TransferSpans(one, true)
	c2 := l2.TransferSpans(many, true)
	if c1 >= c2 {
		t.Fatalf("contiguous transfer (%d) not cheaper than scattered (%d)", c1, c2)
	}
	if l1.Stats().BytesToGPU != l2.Stats().BytesToGPU {
		t.Fatal("byte accounting differs")
	}
}

func TestTransferDirectionAccounting(t *testing.T) {
	l := NewLink(DefaultPCIe3x16())
	l.TransferSpans([]mem.Span{{First: 0, Count: 10}}, true)
	l.TransferSpans([]mem.Span{{First: 0, Count: 5}}, false)
	st := l.Stats()
	if st.BytesToGPU != 10*mem.PageSize || st.BytesToHost != 5*mem.PageSize {
		t.Fatalf("direction accounting wrong: %+v", st)
	}
}

func TestNewLinkValidation(t *testing.T) {
	for _, cfg := range []Config{
		{BandwidthBytesPerSec: 0, CopyEngines: 1},
		{BandwidthBytesPerSec: -1, CopyEngines: 1},
		{BandwidthBytesPerSec: 1e9, CopyEngines: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%+v) did not panic", cfg)
				}
			}()
			NewLink(cfg)
		}()
	}
}

func TestEmptyTransferCostsNothing(t *testing.T) {
	l := NewLink(DefaultPCIe3x16())
	if got := l.TransferSpans(nil, true); got != 0 {
		t.Fatalf("empty transfer cost = %d", got)
	}
}

// Property: cost is monotone in bytes and always at least OpLatency for a
// non-empty transfer. The one-page transfer, the smallest and closest to
// the bound, is checked on every run, not only when quick draws it.
func TestTransferMonotone(t *testing.T) {
	cfg := DefaultPCIe3x16()
	l := NewLink(cfg)
	f := func(a, b uint16) bool {
		x, y := uint64(a)+1, uint64(b)+1
		if x > y {
			x, y = y, x
		}
		cx := l.TransferBytes(x*mem.PageSize, true)
		cy := l.TransferBytes(y*mem.PageSize, true)
		return cx <= cy && cx >= cfg.OpLatency
	}
	if !f(0, 0) || !f(0, 1) {
		t.Error("one-page transfer breaks the property")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: span transfer cost equals sum of per-span costs.
func TestSpanCostAdditive(t *testing.T) {
	f := func(counts []uint8) bool {
		spans := make([]mem.Span, 0, len(counts))
		next := mem.PageID(0)
		for _, c := range counts {
			n := int(c%32) + 1
			spans = append(spans, mem.Span{First: next, Count: n})
			next += mem.PageID(n + 2)
		}
		whole := NewLink(DefaultPCIe3x16())
		parts := NewLink(DefaultPCIe3x16())
		cw := whole.TransferSpans(spans, true)
		var cp sim.Time
		for _, s := range spans {
			cp += parts.TransferSpans([]mem.Span{s}, true)
		}
		diff := cw - cp
		if diff < 0 {
			diff = -diff
		}
		return diff <= sim.Time(len(spans)) // integer rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
