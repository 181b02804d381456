package gpu

import (
	"slices"
	"testing"
	"testing/quick"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestFaultBufferPushFetch(t *testing.T) {
	b := NewFaultBuffer(10)
	for i := 0; i < 5; i++ {
		if !b.Push(Fault{Page: mem.PageID(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("len = %d", b.Len())
	}
	got := b.Fetch(3)
	if len(got) != 3 || got[0].Page != 0 || got[2].Page != 2 {
		t.Fatalf("fetch = %v", got)
	}
	if b.Len() != 2 {
		t.Fatalf("len after fetch = %d", b.Len())
	}
	// FetchInto appends the rest behind what the batch already holds.
	rest := b.FetchInto(got, 100)
	if len(rest) != 5 || rest[2].Page != 2 || rest[3].Page != 3 || rest[4].Page != 4 {
		t.Fatalf("rest = %v", rest)
	}
	if b.Len() != 0 || len(b.FetchInto(rest, 10)) != 5 {
		t.Fatal("fetch from an empty buffer changed the batch")
	}
}

func TestFaultBufferOverflowDrops(t *testing.T) {
	b := NewFaultBuffer(2)
	b.Push(Fault{Page: 1})
	b.Push(Fault{Page: 2})
	if b.Push(Fault{Page: 3}) {
		t.Fatal("push beyond capacity succeeded")
	}
	if b.Dropped != 1 {
		t.Fatalf("Dropped = %d", b.Dropped)
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestFaultBufferFlush(t *testing.T) {
	b := NewFaultBuffer(10)
	for i := 0; i < 7; i++ {
		b.Push(Fault{Page: mem.PageID(i)})
	}
	if n := b.Flush(); n != 7 {
		t.Fatalf("Flush = %d", n)
	}
	if b.Len() != 0 || b.Flushed != 7 {
		t.Fatalf("post-flush state: len=%d flushed=%d", b.Len(), b.Flushed)
	}
	if n := b.Flush(); n != 0 {
		t.Fatalf("empty Flush = %d", n)
	}
}

func TestFaultBufferPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFaultBuffer(0)
}

// Property: FIFO order is preserved across arbitrary push/fetch sequences.
func TestFaultBufferFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewFaultBuffer(1 << 16)
		nextIn := 0
		nextOut := 0
		for _, o := range ops {
			if o%3 == 0 {
				got := b.Fetch(int(o%7) + 1)
				for _, ft := range got {
					if ft.Page != mem.PageID(nextOut) {
						return false
					}
					nextOut++
				}
			} else {
				b.Push(Fault{Page: mem.PageID(nextIn)})
				nextIn++
			}
		}
		return b.Len() == nextIn-nextOut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pushed - Flushed - Dropped - fetched = Len.
func TestFaultBufferAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewFaultBuffer(32)
		fetched := 0
		for i, o := range ops {
			switch o % 4 {
			case 0:
				fetched += len(b.Fetch(3))
			case 1:
				b.Flush()
			default:
				b.Push(Fault{Page: mem.PageID(i)})
			}
		}
		return b.Pushed-b.Flushed-fetched == b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" ||
		AccessPrefetch.String() != "prefetch" {
		t.Fatal("AccessKind strings wrong")
	}
	if AccessKind(99).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}

// TestPageRuns: a contiguous op is one run, and a page list coalesces
// into runs of evenly spaced pages in order with duplicates kept.
func TestPageRuns(t *testing.T) {
	var p Program
	p.Read(0, 10, 3)
	p.Read(0, 0, 0)
	p.ReadPages(0, []mem.PageID{4, 5, 5, 6, 2, 3})
	p.ReadPages(0, []mem.PageID{20, 22, 24, 26, 27, 30, 30})
	want := []PageRun{{10, 3, 0}, {4, 2, 0}, {5, 2, 0}, {2, 2, 0}, {20, 4, 2}, {27, 2, 3}, {30, 1, 0}}
	if !slices.Equal(p.Runs, want) {
		t.Fatalf("runs = %v, want %v", p.Runs, want)
	}
	if got := p.AppendPages(nil, p.Ops[3]); !slices.Equal(got, []mem.PageID{20, 22, 24, 26, 27, 30, 30}) {
		t.Fatalf("strided page-list op expands to %v", got)
	}
	if n := p.NumPages(p.Ops[1]); n != 0 {
		t.Fatalf("empty op touches %d pages", n)
	}
	got := p.AppendPages(nil, p.Ops[2])
	if !slices.Equal(got, []mem.PageID{4, 5, 5, 6, 2, 3}) || p.NumPages(p.Ops[2]) != 6 {
		t.Fatalf("page-list op expands to %v", got)
	}
}

func TestOpConstructors(t *testing.T) {
	var p Program
	p.Read(2, 5, 2)
	p.WritePages(Regs(1, 2), []mem.PageID{9})
	p.Prefetch(1, 3)
	p.Compute(100, Regs(1))
	r, w, pf, c := p.Ops[0], p.Ops[1], p.Ops[2], p.Ops[3]
	if r.Kind != OpRead || r.Dst != 2 || p.NumPages(r) != 2 {
		t.Fatalf("Read = %+v", r)
	}
	if w.Kind != OpWrite || w.Deps != 0b110 || p.AppendPages(nil, w)[0] != 9 {
		t.Fatalf("Write = %+v", w)
	}
	if pf.Kind != OpPrefetch || p.NumPages(pf) != 3 {
		t.Fatalf("Prefetch = %+v", pf)
	}
	if c.Kind != OpCompute || c.Dur != 100 || c.Deps != 0b10 || c.Lo != c.Hi {
		t.Fatalf("Compute = %+v", c)
	}
}

func TestAccessCountersDisabledByDefault(t *testing.T) {
	c := NewAccessCounters()
	c.record(mem.PageID(5).VABlock(), 1)
	if c.Total() != 0 || c.Enabled() {
		t.Fatal("disabled counters recorded accesses")
	}
	c.Enable()
	c.record(mem.PageID(5).VABlock(), 1)
	c.record(mem.PageID(6).VABlock(), 1) // same VABlock
	c.record(3, 1)                       // another block
	if got := c.Read(mem.PageID(5).VABlock()); got != 2 {
		t.Fatalf("block count = %d, want 2", got)
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d, want 3", c.Total())
	}
	c.Clear(mem.PageID(5).VABlock())
	if c.Read(mem.PageID(5).VABlock()) != 0 || c.Total() != 1 {
		t.Fatal("Clear wrong")
	}
}

func TestDeviceCountsResidentAccesses(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	dev.Counters.Enable()
	for i := mem.PageID(0); i < 8; i++ {
		f.resident[i] = true
	}
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		prog := readProg(0, 8)
		prog.Read(1, 0, 8)
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	if got := dev.Counters.Read(0); got != 16 {
		t.Fatalf("counter = %d, want 16 (two passes over 8 resident pages)", got)
	}
}

func TestDeviceCountsExcludeFaults(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	dev.Counters.Enable()
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{readProg(0, 8)}
	}}, func() {})
	run(t, eng)
	// First touches fault; the only counted accesses would be re-reads,
	// which this kernel doesn't perform.
	if got := dev.Counters.Total(); got != 0 {
		t.Fatalf("counters = %d, want 0 for all-faulting kernel", got)
	}
}

// TestFaultBufferGrowthStopsAtCapacity: the buffer grows by doubling but
// never past its capacity, so a full buffer's array holds exactly
// capacity records.
func TestFaultBufferGrowthStopsAtCapacity(t *testing.T) {
	for _, capacity := range []int{100, 1000, 4096} {
		b := NewFaultBuffer(capacity)
		for i := range 2 * capacity {
			b.Push(Fault{Page: mem.PageID(i)})
		}
		if b.Len() != capacity || b.Dropped != capacity {
			t.Fatalf("capacity %d: Len %d, Dropped %d", capacity, b.Len(), b.Dropped)
		}
		if c := cap(b.entries); c != capacity {
			t.Errorf("capacity %d: backing array holds %d records", capacity, c)
		}
	}
}
