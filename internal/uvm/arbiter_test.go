package uvm

import (
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/sim"
)

func TestArbiterImmediateGrantWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArbiter(eng)
	ran := false
	a.Acquire(func() { ran = true })
	if !ran {
		t.Fatal("idle arbiter did not grant immediately")
	}
	st := a.Stats()
	if st.Grants != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArbiterQueuesAndOrdersWaiters(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArbiter(eng)
	var order []int
	a.Acquire(func() { order = append(order, 0) })
	a.Acquire(func() { order = append(order, 1); a.Release() })
	a.Acquire(func() { order = append(order, 2); a.Release() })
	// Holder 0 releases at t=100.
	eng.Schedule(100, a.Release)
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v", order)
	}
	st := a.Stats()
	if st.Queued != 2 {
		t.Fatalf("queued = %d, want 2", st.Queued)
	}
	if st.TotalWait < 200 { // both waited >= 100
		t.Fatalf("total wait = %d, want >= 200", st.TotalWait)
	}
}

func TestArbiterReleasePanicsWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArbiter(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release()
}

// newSystemShared wires a driver + device onto an existing engine, so
// multiple systems can share virtual time (multi-GPU tests).
func newSystemShared(eng *sim.Engine, gcfg gpu.Config, ucfg Config) (*Driver, *gpu.Device) {
	vm := hostos.NewVM(hostos.DefaultCostModel())
	link := interconnect.NewLink(interconnect.DefaultPCIe3x16())
	drv, err := NewDriver(ucfg, PolicySelection{}, eng, vm, link)
	if err != nil {
		panic(err)
	}
	dev, err := gpu.NewDevice(gcfg, eng, drv)
	if err != nil {
		panic(err)
	}
	drv.Attach(dev)
	return drv, dev
}

func TestArbiterSerializesTwoDrivers(t *testing.T) {
	// Two drivers sharing one arbiter: their batch intervals must not
	// overlap.
	eng := sim.NewEngine()
	eng.MaxEvents = 100_000_000
	arb := NewArbiter(eng)

	mk := func() *Driver {
		ucfg := noPrefetch()
		drv, dev := newSystemShared(eng, smallGPU(), ucfg)
		drv.SetArbiter(arb)
		base := drv.Alloc(2 << 21)
		dev.LaunchKernel(streamKernel(base, 1024), func() {})
		return drv
	}
	d1 := mk()
	d2 := mk()
	eng.Run()
	if d1.Stats().Batches == 0 || d2.Stats().Batches == 0 {
		t.Fatal("a driver serviced no batches")
	}
	// Collect all batch intervals across both drivers and check for
	// overlap.
	type iv struct{ s, e sim.Time }
	var ivs []iv
	for _, d := range []*Driver{d1, d2} {
		for _, b := range d.Collector.Batches {
			// Exclude fetch start before slot grant: Start is set at
			// grant, so intervals reflect slot occupancy.
			ivs = append(ivs, iv{b.Start, b.End})
		}
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			if a.s < b.e && b.s < a.e {
				t.Fatalf("overlapping batch service: [%d,%d] vs [%d,%d]", a.s, a.e, b.s, b.e)
			}
		}
	}
	if arb.Stats().Queued == 0 {
		t.Fatal("no contention recorded despite concurrent clients")
	}
}
