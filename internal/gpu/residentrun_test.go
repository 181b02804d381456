package gpu

import (
	"encoding/binary"
	"reflect"
	"testing"

	"guvm/internal/digest"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// runBase is the first page of the resident-run fuzz's page universe,
// [runBase, runBase+128), which straddles the VABlock edge at page 512.
const runBase = mem.PagesPerVABlock - 64

// runCase is a fuzz input decoded into a kernel and the residency it
// starts from: a seeded resident set over the page universe, optional
// remote mapping and access counters, a µTLB capacity, and the ops every
// warp runs.
type runCase struct {
	blocks    int
	maxFaults int
	counters  bool
	threshold uint64
	// remote maps every third page of the universe remotely.
	remote bool
	// resident marks pages runBase+2i and runBase+2i+1 when bit i is set.
	resident uint64
	ops      []byte // three bytes per op
}

// decodeRunCase reads an 11-byte header (flags, threshold, µTLB
// capacity, 8-byte resident mask) and then the ops, three bytes each.
// The flags byte gives the block count (1-3) in its low two bits and
// turns access counters on with bit 2 and remote mapping on with bit 3.
func decodeRunCase(data []byte) (runCase, bool) {
	if len(data) < 14 {
		return runCase{}, false
	}
	c := runCase{
		blocks:    1 + int(data[0]&3)%3,
		counters:  data[0]&4 != 0,
		remote:    data[0]&8 != 0,
		threshold: uint64(data[1] % 16),
		maxFaults: 1 + int(data[2]%8),
		resident:  binary.LittleEndian.Uint64(data[3:11]),
	}
	ops := data[11:]
	c.ops = ops[:min(len(ops)/3, 8)*3]
	return c, true
}

// program builds the case's warp program. An op's first byte gives its
// kind (low two bits), register or dependencies (next three bits) and
// page step (top three bits; 0 or 1 is contiguous), its second byte the
// first page within the universe, and its third the page count: up to
// 80 contiguous pages, so runs cross the block edge, or up to 16 strided
// ones, built from a page list.
func (c runCase) program() Program {
	var p Program
	for i := 0; i+2 < len(c.ops); i += 3 {
		a, b, n := c.ops[i], c.ops[i+1], c.ops[i+2]
		first := runBase + mem.PageID(b%128)
		step := mem.PageID(a >> 5)
		count := 1 + int(n%80)
		var list []mem.PageID
		if step >= 2 {
			count = 1 + int(n%16)
			for k := 0; k < count; k++ {
				list = append(list, first+mem.PageID(k)*step)
			}
		}
		switch a % 4 {
		case 0:
			if list == nil {
				p.Read(int(a>>2)%3, first, count)
			} else {
				p.ReadPages(int(a>>2)%3, list)
			}
		case 1:
			if list == nil {
				p.Write(RegMask(a>>2)&0b111, first, count)
			} else {
				p.WritePages(RegMask(a>>2)&0b111, list)
			}
		case 2:
			p.Prefetch(first, count)
		case 3:
			p.Compute(sim.Time(1+(a>>2)%8)*sim.Microsecond, RegMask(n)&0b111)
		}
	}
	return p
}

// residentRunResult is everything observable about one device run.
type residentRunResult struct {
	end      sim.Time
	executed uint64
	// timeline hashes the instant of every dispatched event, in order.
	timeline uint64
	digest   uint64
	stats    Stats
	counters uint64
	batches  [][]Fault
}

// runResidentCase runs c on a fresh device whose fake driver caps every
// ResidentRun answer at runCap pages (0: no cap).
func runResidentCase(t *testing.T, c runCase, runCap uint32) residentRunResult {
	t.Helper()
	cfg := smallConfig()
	cfg.MaxFaultsPerUTLB = c.maxFaults
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, cfg)
	f.runCap = runCap
	for i := 0; i < 128; i++ {
		if c.resident&(1<<(i/2)) != 0 {
			f.resident[runBase+mem.PageID(i)] = true
		}
	}
	if c.remote {
		dev.remote = func(p mem.PageID) bool { return p%3 == 0 }
	}
	if c.counters {
		dev.Counters.Enable()
		dev.Counters.SetThreshold(c.threshold)
	}
	h := digest.New()
	eng.OnEvent = func(at sim.Time) { h = h.Uint64(uint64(at)) }
	prog := c.program()
	if err := dev.LaunchKernel(Kernel{NumBlocks: c.blocks, BlockProgram: func(int) []Program {
		return []Program{prog}
	}}, func() {}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	end := run(t, eng)
	return residentRunResult{
		end:      end,
		executed: eng.Executed(),
		timeline: h.Sum(),
		digest:   dev.Digest(),
		stats:    dev.Stats(),
		counters: dev.Counters.Total(),
		batches:  f.batches,
	}
}

// FuzzResidentRunsMatchPerPage: a device that learns residency a run at
// a time, and completes a resident run as one counted group member, runs
// exactly as one told about one page at a time: the same end time,
// engine event timeline, device digest, statistics, access-counter
// total and fault-buffer batches, record for record.
func FuzzResidentRunsMatchPerPage(f *testing.F) {
	// Remote mapping and a counter threshold: notification faults split
	// the resident and remote completions around them.
	f.Add([]byte{0x0d, 3, 7, 0xff, 0x0f, 0xf0, 0xff, 0xff, 0x3c, 0xff, 0xff, 0x00, 20, 70, 0x01, 0, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeRunCase(data)
		if !ok {
			return
		}
		runs, perPage := runResidentCase(t, c, 0), runResidentCase(t, c, 1)
		if !reflect.DeepEqual(runs, perPage) {
			t.Fatalf("run-at-a-time device differs from per-page:\n%+v\n%+v", runs, perPage)
		}
	})
}
