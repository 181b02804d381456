package gpu

import (
	"errors"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// TestHWBufferOverflowRecovers drives more faults than the hardware fault
// buffer holds: overflow records drop, the accesses stay pending in µTLBs,
// and the post-replay re-fault path eventually services everything.
func TestHWBufferOverflowRecovers(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultBufferEntries = 16 // tiny HW buffer
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	f.batchSize = 16
	done := false
	// 2 blocks x 40 pages: far beyond the 16-entry buffer.
	dev.LaunchKernel(Kernel{NumBlocks: 2, BlockProgram: func(b int) []Program {
		return []Program{readProg(mem.PageID(b*1000), 40)}
	}}, func() { done = true })
	run(t, eng)
	if !done {
		t.Fatal("kernel never completed after buffer overflow")
	}
	if dev.Buffer.Dropped == 0 {
		t.Fatal("no hardware drops despite tiny buffer")
	}
	for p := mem.PageID(0); p < 40; p++ {
		if !f.resident[p] || !f.resident[1000+p] {
			t.Fatalf("page %d never serviced", p)
		}
	}
}

// TestDeferredRefaultPath fills a µTLB beyond capacity with waiting
// accesses so that replay-time re-faults overflow and defer to the next
// replay — and the kernel still finishes.
func TestDeferredRefaultPath(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSMs = 2
	cfg.SMsPerUTLB = 2 // single µTLB
	cfg.MaxFaultsPerUTLB = 8
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	// Service only 2 pages per batch: most rechecks re-fault, exceeding
	// the 8-entry µTLB, so some defer.
	f.batchSize = 2
	done := false
	dev.LaunchKernel(Kernel{NumBlocks: 2, BlockProgram: func(b int) []Program {
		return []Program{readProg(mem.PageID(b*100), 8)}
	}}, func() { done = true })
	run(t, eng)
	if !done {
		t.Fatal("kernel never completed through deferred re-faults")
	}
	if dev.Stats().Refaults == 0 {
		t.Fatal("no re-faults recorded")
	}
}

// TestMaxBlocksPerSMScheduling verifies that at most MaxBlocksPerSM blocks
// occupy one SM concurrently and queued blocks run as predecessors retire.
func TestMaxBlocksPerSMScheduling(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSMs = 1
	cfg.MaxBlocksPerSM = 2
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, cfg)
	const nblocks = 7
	done := false
	dev.LaunchKernel(Kernel{NumBlocks: nblocks, BlockProgram: func(b int) []Program {
		return []Program{computeProg(10 * sim.Microsecond)}
	}}, func() { done = true })
	// Every block computes 10us on one SM with 2 slots: makespan is
	// ceil(7/2)*10us = 40us if exactly 2 run concurrently.
	end := run(t, eng)
	if !done {
		t.Fatal("kernel incomplete")
	}
	if end < 40*sim.Microsecond {
		t.Fatalf("7 blocks at 2/SM finished at %v, want >= 40us (slot-limited)", end)
	}
	if end > 80*sim.Microsecond {
		t.Fatalf("finished at %v, want < 80us (parallel within slots)", end)
	}
}

// TestPrefetchFaultJoinsAreDups ensures two warps prefetching the same
// pages share pending entries, with the joiner emitting a dup record.
func TestPrefetchFaultJoinsAreDups(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	var shared Program
	shared.Prefetch(0, 16)
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{shared, shared}
	}}, func() {})
	run(t, eng)
	dups := 0
	for _, b := range f.batches {
		for _, ft := range b {
			if ft.Dup {
				if ft.Kind != AccessPrefetch {
					t.Fatalf("dup of kind %v, want prefetch", ft.Kind)
				}
				dups++
			}
		}
	}
	if dups == 0 && dev.Stats().DupFaults == 0 {
		t.Fatal("no duplicate prefetch records")
	}
}

// TestWarpWriteWithoutDepsDoesNotStall confirms Write(0, ...) issues
// immediately (stores without operand dependencies).
func TestWarpWriteWithoutDepsDoesNotStall(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	f.serviceTime = 10 * sim.Millisecond
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		var prog Program
		prog.Read(0, 0, 4)
		prog.Write(0, 100, 4) // no deps: issues with reads outstanding
		return []Program{prog}
	}}, func() {})
	run(t, eng)
	if len(f.batches) == 0 {
		t.Fatal("no batches")
	}
	// Both reads and writes must appear in the first batch: the write
	// did not wait for the reads.
	kinds := map[AccessKind]int{}
	for _, ft := range f.batches[0] {
		kinds[ft.Kind]++
	}
	if kinds[AccessRead] != 4 || kinds[AccessWrite] != 4 {
		t.Fatalf("first batch kinds = %v, want 4 reads + 4 writes", kinds)
	}
}

// TestLaunchWhileRunningFails documents the single-kernel constraint.
func TestLaunchWhileRunningFails(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	if err := dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{computeProg(sim.Millisecond)}
	}}, func() {}); err != nil {
		t.Fatalf("first launch: %v", err)
	}
	err := dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return nil
	}}, func() {})
	if !errors.Is(err, ErrKernelRunning) {
		t.Fatalf("second launch err = %v, want ErrKernelRunning", err)
	}
}

// TestNegativeBlockCountFails documents kernel validation.
func TestNegativeBlockCountFails(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	err := dev.LaunchKernel(Kernel{NumBlocks: -1}, func() {})
	if !errors.Is(err, ErrBadKernel) {
		t.Fatalf("err = %v, want ErrBadKernel", err)
	}
}

// TestBadProgramFailsRun documents that a malformed warp program surfaces
// as the run's terminal error, not a panic: custom workloads can contain
// arbitrary op kinds and hand-built loops.
func TestBadProgramFailsRun(t *testing.T) {
	compute := Op{Kind: OpCompute, Dur: sim.Microsecond}
	for name, ops := range map[string][]Op{
		"unknown kind":         {{Kind: OpKind(99)}},
		"loop with empty body": {compute, {Kind: OpLoop, Lo: 1, Hi: 2}},
		"loop body after it":   {compute, {Kind: OpLoop, Lo: 2, Hi: 2}, compute},
		"loop of one pass":     {compute, {Kind: OpLoop, Lo: 0, Hi: 1}},
		"nested loop":          {compute, {Kind: OpLoop, Lo: 0, Hi: 2}, compute, {Kind: OpLoop, Lo: 0, Hi: 2}},
		"stride with no loop":  {compute, {Kind: OpWrite, Stride: 3}},
		"stride before body":   {{Kind: OpWrite, Stride: 3}, compute, {Kind: OpLoop, Lo: 1, Hi: 2}},
		"stride after loop":    {compute, {Kind: OpLoop, Lo: 0, Hi: 2}, {Kind: OpRead, Stride: 1}},
		"hashed over no span":  {compute, {Kind: OpRead, Hashed: true, Dur: 7}, {Kind: OpLoop, Lo: 1, Hi: 2}},
		"hashed compute":       {{Kind: OpCompute, Hashed: true, Stride: 4, Dur: sim.Microsecond}},
	} {
		eng := sim.NewEngine()
		_, dev := newFakeDriver(eng, smallConfig())
		if err := dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
			return []Program{{Ops: ops}}
		}}, func() {}); err != nil {
			t.Fatalf("%s: launch: %v", name, err)
		}
		if _, err := eng.Run(); !errors.Is(err, ErrBadProgram) {
			t.Fatalf("%s: run err = %v, want ErrBadProgram", name, err)
		}
	}
}

// TestNegativeRegisterFailsRun: register -1 marks "no register" on an
// access, so a read into it would never be released and a dependent op
// would wait forever; a register past 63 has no scoreboard bit. Such
// programs are rejected as malformed when their block starts, instead of
// hanging the warp until the run reports a stall. A dependency set cannot
// name such a register at all: Regs panics on one.
func TestNegativeRegisterFailsRun(t *testing.T) {
	for _, r := range []int{-1, NumRegs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Regs(%d) did not panic", r)
				}
			}()
			Regs(r)
		}()
	}
	progs := map[string]Program{}
	for name, dst := range map[string]int{"read dst -1": -1, "read dst 64": NumRegs, "read dst 300": 300} {
		var p Program
		p.Compute(sim.Microsecond, 0)
		p.Read(dst, 0, 1)
		progs[name] = p
	}
	progs["span past runs"] = Program{Ops: []Op{{Kind: OpWrite, Lo: 0, Hi: 1}}}
	for name, prog := range progs {
		eng := sim.NewEngine()
		_, dev := newFakeDriver(eng, smallConfig())
		if err := dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
			return []Program{prog}
		}}, func() {}); err != nil {
			t.Fatalf("%s: launch: %v", name, err)
		}
		end, err := eng.Run()
		if !errors.Is(err, ErrBadProgram) {
			t.Fatalf("%s: run err = %v, want ErrBadProgram", name, err)
		}
		if end != 0 {
			t.Fatalf("%s: run failed at %v, want 0 (validated before any op runs)", name, end)
		}
	}
}

// TestInjectedDropRecoversByRetry drives faults through an injector that
// drops the first delivery attempt: hardware-style re-emission must land
// every record and the kernel must still complete, with recovery counted.
func TestInjectedDropRecoversByRetry(t *testing.T) {
	icfg := faultinject.DefaultConfig()
	icfg.BufferDropRate = 0.4
	icfg.BufferDropRetries = 8 // deep budget: every drop recovers by retry
	in, err := faultinject.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	dev.SetInjector(in)
	done := false
	if err := dev.LaunchKernel(Kernel{NumBlocks: 2, BlockProgram: func(b int) []Program {
		return []Program{readProg(mem.PageID(b*1000), 40)}
	}}, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	run(t, eng)
	if !done {
		t.Fatal("kernel never completed under injected drops")
	}
	st := in.Stats().BufferDrop
	if st.Injected == 0 || st.Retried == 0 || st.Recovered == 0 {
		t.Fatalf("drop counters = %+v, want injections, retries and recoveries", st)
	}
	for p := mem.PageID(0); p < 40; p++ {
		if !f.resident[p] || !f.resident[1000+p] {
			t.Fatalf("page %d never serviced", p)
		}
	}
}
