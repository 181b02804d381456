package gpu

import (
	"testing"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// fakeDriver is a minimal fault servicer used to exercise the device in
// isolation: it marks every fetched page resident after a fixed service
// time, flushes the buffer, and issues a replay — the core driver loop.
type fakeDriver struct {
	eng         *sim.Engine
	dev         *Device
	resident    map[mem.PageID]bool
	batchSize   int
	serviceTime sim.Time
	drainDelay  sim.Time // models "read faults until none remain" draining
	batches     [][]Fault
	sleeping    bool
	// runCap, when non-zero, caps every ResidentRun answer at runCap
	// pages, so the device asks page by page (the per-page oracle).
	runCap uint32
}

func newFakeDriver(eng *sim.Engine, cfg Config) (*fakeDriver, *Device) {
	f := &fakeDriver{
		eng:         eng,
		resident:    make(map[mem.PageID]bool),
		batchSize:   256,
		serviceTime: 50 * sim.Microsecond,
		drainDelay:  30 * sim.Microsecond,
		sleeping:    true,
	}
	dev, err := NewDevice(cfg, eng, f)
	if err != nil {
		panic(err)
	}
	dev.SetInterruptHandler(f.wake)
	f.dev = dev
	return f, dev
}

func (f *fakeDriver) ResidentRun(first mem.PageID, n uint32) uint32 {
	if f.runCap > 0 {
		n = min(n, f.runCap)
	}
	k := uint32(0)
	for p := first; k < n && p.VABlock() == first.VABlock() && f.resident[p]; p++ {
		k++
	}
	return k
}

func (f *fakeDriver) wake() {
	if !f.sleeping {
		return
	}
	f.sleeping = false
	f.loop()
}

func (f *fakeDriver) loop() {
	// Emulate the driver's fetch loop draining the buffer while the GPU
	// is still inserting faults: wait for generation to stall, then read.
	f.eng.Schedule(f.drainDelay, func() {
		faults := f.dev.Buffer.Fetch(f.batchSize)
		if len(faults) == 0 {
			f.sleeping = true
			return
		}
		f.batches = append(f.batches, faults)
		f.eng.Schedule(f.serviceTime, func() {
			for _, ft := range faults {
				f.resident[ft.Page] = true
			}
			f.dev.Buffer.Flush()
			f.dev.Replay()
			f.loop()
		})
	})
}

// smallConfig is a 2-SM device for focused tests.
func smallConfig() Config {
	c := DefaultTitanV()
	c.NumSMs = 2
	return c
}

func run(t *testing.T, eng *sim.Engine) sim.Time {
	t.Helper()
	eng.MaxEvents = 50_000_000
	end, err := eng.Run()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return end
}

// readProg is a one-op program reading pages [first, first+n) into
// register 0.
func readProg(first mem.PageID, n int) Program {
	var p Program
	p.Read(0, first, n)
	return p
}

// computeProg is a one-op program computing for dur.
func computeProg(dur sim.Time) Program {
	var p Program
	p.Compute(dur, 0)
	return p
}

// listing1Kernel reproduces the paper's Listing 1: one 32-thread warp,
// each thread touching a distinct page, three iterations of c = a + b.
func listing1Kernel(aBase, bBase, cBase mem.PageID) Kernel {
	var prog Program
	for iter := 0; iter < 3; iter++ {
		off := mem.PageID(iter * 32)
		prog.Read(0, aBase+off, 32)
		prog.Read(1, bBase+off, 32)
		prog.Write(Regs(0, 1), cBase+off, 32)
	}
	return Kernel{NumBlocks: 1, BlockProgram: func(int) []Program { return []Program{prog} }}
}

func TestListing1FirstBatchIs56Faults(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	done := false
	dev.LaunchKernel(listing1Kernel(0, 10000, 20000), func() { done = true })
	run(t, eng)
	if !done {
		t.Fatal("kernel never completed")
	}
	if len(f.batches) == 0 {
		t.Fatal("no batches")
	}
	// §3.2: the µTLB limit of 56 caps the first batch (32 A-reads + 24
	// B-reads).
	if got := len(f.batches[0]); got != 56 {
		t.Fatalf("first batch = %d faults, want 56", got)
	}
	for _, ft := range f.batches[0] {
		if ft.Kind != AccessRead {
			t.Fatalf("first batch contains %v fault, want reads only", ft.Kind)
		}
	}
}

func TestListing1WritesAfterAllReads(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	dev.LaunchKernel(listing1Kernel(0, 10000, 20000), func() {})
	run(t, eng)
	// Scoreboard rule: within each iteration, no write fault may appear
	// in any batch before every read fault of that iteration appeared.
	readsSeen, writesSeen := 0, 0
	for _, b := range f.batches {
		for _, ft := range b {
			switch ft.Kind {
			case AccessRead:
				readsSeen++
				if writesSeen > 0 && readsSeen <= 64*(writesSeen/32+1) && writesSeen%32 != 0 {
					// Interleaving inside an iteration is impossible;
					// handled by the stronger per-batch check below.
					t.Fatalf("read after partial writes: reads=%d writes=%d", readsSeen, writesSeen)
				}
			case AccessWrite:
				writesSeen++
				if readsSeen < 64*(writesSeen/32+boolToInt(writesSeen%32 != 0)) {
					t.Fatalf("write fault before its 64 reads: reads=%d writes=%d", readsSeen, writesSeen)
				}
			}
		}
	}
	if writesSeen != 96 {
		t.Fatalf("total write faults = %d, want 96", writesSeen)
	}
	if readsSeen < 192 {
		t.Fatalf("total read faults = %d, want >= 192", readsSeen)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestPrefetchFillsFullBatch(t *testing.T) {
	// §3.2/Figure 5: prefetch instructions escape the µTLB limit and
	// throttle; a single warp fills the 256-fault batch limit.
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	var prog Program
	prog.Prefetch(0, 256)
	prog.Prefetch(1000, 256)
	prog.Prefetch(2000, 256)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	if len(f.batches) == 0 {
		t.Fatal("no batches")
	}
	if got := len(f.batches[0]); got != 256 {
		t.Fatalf("first prefetch batch = %d faults, want 256 (batch limit)", got)
	}
	// The overflow faults were flushed and re-faulted; everything still
	// completes.
	if dev.Stats().Refaults == 0 {
		t.Fatal("expected flushed prefetch faults to re-fault")
	}
}

func TestReadsDontBlockWithoutDependency(t *testing.T) {
	// Two independent reads of 20 pages each: all 40 faults must be
	// outstanding before any servicing (non-blocking loads).
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	f.serviceTime = 10 * sim.Millisecond // let all faults accumulate
	var prog Program
	prog.Read(0, 0, 20)
	prog.Read(1, 100, 20)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	if got := len(f.batches[0]); got != 40 {
		t.Fatalf("first batch = %d, want 40 (both reads outstanding)", got)
	}
}

func TestUTLBCapacityStallsWarp(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	// One warp reading 100 distinct pages: 56 fault, then stall.
	prog := readProg(0, 100)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	if got := len(f.batches[0]); got != 56 {
		t.Fatalf("first batch = %d, want 56", got)
	}
	if dev.Stats().UTLBFullStalls == 0 {
		t.Fatal("no µTLB-full stalls recorded")
	}
	// Remaining 44 pages fault after the first replay.
	if got := len(f.batches[1]); got != 44 {
		t.Fatalf("second batch = %d, want 44", got)
	}
}

func TestThrottleSpacesFaults(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultThrottleGap = 5 * sim.Microsecond
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	f.serviceTime = sim.Millisecond
	prog := readProg(0, 10)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	var all []Fault
	for _, b := range f.batches {
		all = append(all, b...)
	}
	if len(all) < 10 {
		t.Fatalf("saw %d faults, want >= 10", len(all))
	}
	for i := 1; i < 10; i++ {
		gap := all[i].Time - all[i-1].Time
		if gap < cfg.FaultThrottleGap {
			t.Fatalf("fault gap %d < throttle %d", gap, cfg.FaultThrottleGap)
		}
	}
}

func TestDuplicateFaultsAcrossWarpsSameUTLB(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	// Two warps in one block read the same pages: second warp's faults
	// are hardware-visible duplicates.
	shared := readProg(0, 8)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{
			shared,
			shared,
		}
	}}, func() {})
	run(t, eng)
	dups := 0
	for _, b := range f.batches {
		for _, ft := range b {
			if ft.Dup {
				dups++
			}
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate faults recorded for shared pages")
	}
	// Some dup records may be flushed before the driver reads them, so
	// the emission count is an upper bound on the observed count.
	if dev.Stats().DupFaults < dups {
		t.Fatalf("stats dup count %d < observed %d", dev.Stats().DupFaults, dups)
	}
}

func TestCrossUTLBDuplicatesAreSeparateEntries(t *testing.T) {
	// Blocks on different SMs (different µTLBs) faulting the same page
	// produce two non-dup records — type-2 duplicates are only visible
	// to the driver, not the hardware.
	cfg := smallConfig()
	cfg.SMsPerUTLB = 1 // 2 SMs, 2 µTLBs
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	shared := readProg(0, 4)
	dev.LaunchKernel(Kernel{NumBlocks: 2, BlockProgram: func(int) []Program {
		return []Program{shared}
	}}, func() {})
	run(t, eng)
	perPage := map[mem.PageID]int{}
	for _, b := range f.batches {
		for _, ft := range b {
			if ft.Dup {
				t.Fatal("cross-µTLB fault marked as hardware dup")
			}
			perPage[ft.Page]++
		}
	}
	for p := mem.PageID(0); p < 4; p++ {
		if perPage[p] != 2 {
			t.Fatalf("page %d seen %d times, want 2 (one per µTLB)", p, perPage[p])
		}
	}
}

func TestKernelCompletesAllBlocks(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	done := false
	nblocks := 17
	dev.LaunchKernel(Kernel{NumBlocks: nblocks, BlockProgram: func(b int) []Program {
		return []Program{readProg(mem.PageID(b*64), 16)}
	}}, func() { done = true })
	run(t, eng)
	if !done {
		t.Fatal("kernel incomplete")
	}
	if dev.Stats().BlocksCompleted != nblocks {
		t.Fatalf("blocks completed = %d, want %d", dev.Stats().BlocksCompleted, nblocks)
	}
	if dev.Running() {
		t.Fatal("device still running after completion")
	}
}

func TestEmptyKernelCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	done := false
	dev.LaunchKernel(Kernel{NumBlocks: 0, BlockProgram: nil}, func() { done = true })
	if !done {
		t.Fatal("empty kernel did not complete synchronously")
	}
}

func TestResidentAccessesNeverFault(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	for i := mem.PageID(0); i < 64; i++ {
		f.resident[i] = true
	}
	done := false
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		prog := readProg(0, 64)
		prog.Write(Regs(0), 0, 64)
		return []Program{prog}
	}}, func() { done = true })
	end := run(t, eng)
	if !done {
		t.Fatal("kernel incomplete")
	}
	if dev.Stats().FaultsEmitted != 0 {
		t.Fatalf("emitted %d faults for resident data", dev.Stats().FaultsEmitted)
	}
	if end > sim.Millisecond {
		t.Fatalf("in-core kernel took %v ns, want fast path", end)
	}
}

func TestComputeOpDelaysCompletion(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	var finish sim.Time
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{computeProg(3 * sim.Millisecond)}
	}}, func() { finish = eng.Now() })
	run(t, eng)
	if finish < 3*sim.Millisecond {
		t.Fatalf("compute kernel finished at %d, want >= 3ms", finish)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultTitanV()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.SMsPerUTLB = 0 },
		func(c *Config) { c.MaxFaultsPerUTLB = 0 },
		func(c *Config) { c.FaultBufferEntries = 0 },
		func(c *Config) { c.MaxBlocksPerSM = 0 },
	}
	for i, mut := range bad {
		c := DefaultTitanV()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFaultsRecordSMOfOrigin(t *testing.T) {
	cfg := DefaultTitanV()
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	// 80 blocks, one per SM, each faulting distinct pages.
	dev.LaunchKernel(Kernel{NumBlocks: 80, BlockProgram: func(b int) []Program {
		return []Program{readProg(mem.PageID(b*1000), 4)}
	}}, func() {})
	run(t, eng)
	sms := map[int]bool{}
	for _, b := range f.batches {
		for _, ft := range b {
			sms[ft.SM] = true
			if ft.UTLB != ft.SM/cfg.SMsPerUTLB {
				t.Fatalf("fault UTLB %d inconsistent with SM %d", ft.UTLB, ft.SM)
			}
		}
	}
	if len(sms) != 80 {
		t.Fatalf("faults from %d SMs, want 80", len(sms))
	}
}
