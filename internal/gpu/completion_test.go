package gpu

import (
	"errors"
	"slices"
	"testing"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// eventsAt runs eng to completion and counts the events it dispatched
// at instant at.
func eventsAt(t *testing.T, eng *sim.Engine, at sim.Time) int {
	t.Helper()
	n := 0
	eng.OnEvent = func(now sim.Time) {
		if now == at {
			n++
		}
	}
	run(t, eng)
	return n
}

// oneWarp is a single-block, single-warp kernel.
func oneWarp(prog Program) Kernel {
	return Kernel{NumBlocks: 1, BlockProgram: func(int) []Program { return []Program{prog} }}
}

// TestResidentOpIsOneEvent: a warp op over N resident pages completes
// all N accesses in one engine event, whatever N is, and that event's
// group holds them as one member counting N.
func TestResidentOpIsOneEvent(t *testing.T) {
	executed := map[int]uint64{}
	for _, n := range []int{1, 64} {
		eng := sim.NewEngine()
		f, dev := newFakeDriver(eng, smallConfig())
		for p := mem.PageID(0); p < mem.PageID(n); p++ {
			f.resident[p] = true
		}
		done := false
		dev.LaunchKernel(oneWarp(readProg(0, n)), func() { done = true })
		lat := dev.Config().MemLatency
		events := 0
		var held []member
		eng.OnEvent = func(now sim.Time) {
			if now == lat {
				events++
				if g := dev.openGroup; g != nil {
					held = slices.Clone(g.members)
				}
			}
		}
		run(t, eng)
		if events != 1 {
			t.Fatalf("%d resident pages: %d events at the completion instant, want 1", n, events)
		}
		if len(held) != 1 || held[0].n != int32(n) {
			t.Fatalf("%d resident pages: group members %+v, want one counting %d", n, held, n)
		}
		if !done {
			t.Fatalf("%d resident pages: kernel incomplete", n)
		}
		executed[n] = eng.Executed()
	}
	if executed[1] != executed[64] {
		t.Fatalf("engine events: %d for 1 page, %d for 64, want equal", executed[1], executed[64])
	}
}

// TestMixedOpSplitsGroup: a non-resident page in the middle of an op
// schedules its fault delivery between the completions around it, so
// they land in two groups at the same instant.
func TestMixedOpSplitsGroup(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	for p := mem.PageID(0); p < 8; p++ {
		f.resident[p] = p != 4
	}
	done := false
	dev.LaunchKernel(oneWarp(readProg(0, 8)), func() { done = true })
	if got := eventsAt(t, eng, dev.Config().MemLatency); got != 2 {
		t.Fatalf("%d events at the completion instant, want 2 (pages 0-3, then 5-7)", got)
	}
	if !done {
		t.Fatal("kernel incomplete")
	}
	if dev.Stats().FaultsEmitted != 1 {
		t.Fatalf("emitted %d faults, want 1 (page 4)", dev.Stats().FaultsEmitted)
	}
}

// remoteOracle maps every page remotely (access-counter architecture).
type remoteOracle struct{}

func (remoteOracle) ResidentRun(mem.PageID, uint32) uint32 { return 0 }
func (remoteOracle) IsRemoteOnGPU(mem.PageID) bool         { return true }
func (remoteOracle) RemoteMappingActive() bool             { return true }

// TestCounterNotifySplitsGroup: the notification fault emitted when a
// block's access counter crosses its threshold is scheduled between two
// remote completions, which therefore land in two groups.
func TestCounterNotifySplitsGroup(t *testing.T) {
	for _, tc := range []struct {
		threshold uint64
		groups    int
	}{
		{0, 1}, // disarmed: no notification, one group
		{4, 2}, // crossing on the 4th access: pages 0-2, then 3-7
	} {
		eng := sim.NewEngine()
		dev, err := NewDevice(smallConfig(), eng, remoteOracle{})
		if err != nil {
			t.Fatal(err)
		}
		dev.Counters.Enable()
		dev.Counters.SetThreshold(tc.threshold)
		done := false
		dev.LaunchKernel(oneWarp(readProg(0, 8)), func() { done = true })
		if got := eventsAt(t, eng, dev.Config().RemoteAccessLatency); got != tc.groups {
			t.Fatalf("threshold %d: %d events at the completion instant, want %d", tc.threshold, got, tc.groups)
		}
		if !done {
			t.Fatalf("threshold %d: kernel incomplete", tc.threshold)
		}
		if dev.Stats().RemoteAccesses != 8 {
			t.Fatalf("threshold %d: %d remote accesses, want 8", tc.threshold, dev.Stats().RemoteAccesses)
		}
	}
}

// TestFailInGroupStopsRemainingMembers: when one member's completion
// fails the run, the members after it stay unsatisfied, as the engine
// would not have dispatched their events.
func TestFailInGroupStopsRemainingMembers(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSMs = 1
	cfg.MaxBlocksPerSM = 2
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, cfg)
	errStop := errors.New("stop at block 2")
	// Blocks 0 and 1 each fault one page; the replay rechecks both into
	// one group. Satisfying block 0's access retires it and launches
	// block 2, whose program generation fails the run.
	dev.LaunchKernel(Kernel{NumBlocks: 3, BlockProgram: func(b int) []Program {
		if b == 2 {
			eng.Fail(errStop)
		}
		return []Program{readProg(mem.PageID(b), 1)}
	}}, func() {})
	if _, err := eng.Run(); !errors.Is(err, errStop) {
		t.Fatalf("run err = %v, want %v", err, errStop)
	}
	if got := dev.Stats().BlocksCompleted; got != 1 {
		t.Fatalf("%d blocks completed, want 1 (block 1's access follows the failing member)", got)
	}
}

// TestZeroMemLatency: completions due at the current instant still run,
// after everything already queued there, and still group.
func TestZeroMemLatency(t *testing.T) {
	cfg := smallConfig()
	cfg.MemLatency = 0
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, cfg)
	done := false
	dev.LaunchKernel(listing1Kernel(0, 10000, 20000), func() { done = true })
	run(t, eng)
	if !done {
		t.Fatal("Listing 1 kernel incomplete with MemLatency 0")
	}

	executed := map[int]uint64{}
	for _, n := range []int{1, 64} {
		eng := sim.NewEngine()
		f, dev := newFakeDriver(eng, cfg)
		for p := mem.PageID(0); p < mem.PageID(n); p++ {
			f.resident[p] = true
		}
		done := false
		var prog Program
		prog.Read(0, 0, n)
		prog.Write(Regs(0), 0, n)
		dev.LaunchKernel(oneWarp(prog), func() { done = true })
		run(t, eng)
		if !done {
			t.Fatalf("%d resident pages: kernel incomplete with MemLatency 0", n)
		}
		executed[n] = eng.Executed()
	}
	if executed[1] != executed[64] {
		t.Fatalf("engine events: %d for 1 page, %d for 64, want equal", executed[1], executed[64])
	}
}
