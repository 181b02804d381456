package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

// TestAttributeRecordedProfile records a CPU profile of a known busy guvm
// function and checks that the decoder charges it to that function's
// layer, and that work under the harness label is left out.
func TestAttributeRecordedProfile(t *testing.T) {
	round := func(name string) func() int {
		for _, p := range probes {
			if p.name == name {
				return p.newRound()
			}
		}
		t.Fatalf("no probe %s", name)
		return nil
	}
	// The engine dispatch loop is the busy function; the block-directory
	// probe, which allocates nothing, runs as harness work.
	dispatch, blockdir := round("sim.probe_dispatch"), round("mem.probe_blockdir")

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		dispatch()
		pprof.Do(context.Background(), pprof.Labels("bench", "harness"), func(context.Context) {
			for i := 0; i < 64; i++ {
				blockdir()
			}
		})
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	// Under the race detector many samples land in its C runtime, which
	// the profiler cannot unwind; only samples with a guvm frame count.
	guvmSamples := a.Total - a.Layers[bucketGC] - a.Layers[bucketOther]
	if guvmSamples < 20 {
		t.Skipf("only %d samples with a guvm frame recorded", guvmSamples)
	}
	if s := float64(a.Layers["sim"]) / float64(guvmSamples); s < 0.9 {
		t.Errorf("sim has %.2f of %d guvm samples, want the busy dispatch loop to dominate (%v)", s, guvmSamples, a.Layers)
	}
	if n := a.Layers["mem"]; n != 0 {
		t.Errorf("%d harness-labelled mem samples were counted", n)
	}
}

// TestAttributeRules checks the charging rule on a hand-built profile.
func TestAttributeRules(t *testing.T) {
	var pb protoEncoder
	// Each stack is leaf first; a stack entry with several names is one
	// location with inlined frames, innermost first.
	stacks := []struct {
		frames [][]string
		value  int64
		label  string
	}{
		{[][]string{{"runtime.mallocgc"}, {"guvm/internal/mem.(*BlockDir[go.shape.*guvm/internal/uvm.blockState]).Set"}, {"main.main"}}, 3, ""},
		{[][]string{{"guvm/internal/sim.(*calQueue).Push", "guvm/internal/uvm.(*Driver).schedule"}}, 2, ""},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}}, 4, ""},
		{[][]string{{"runtime.futex"}, {"runtime.mcall"}}, 1, ""},
		{[][]string{{"guvm/internal/sweepd.helper"}, {"guvm.(*Simulator).run.func2"}}, 5, ""},
		{[][]string{{"guvm/internal/gpu.(*Device).emit"}}, 7, "harness"},
	}
	for _, s := range stacks {
		var locs []uint64
		for _, names := range s.frames {
			locs = append(locs, pb.location(names))
		}
		pb.sample(locs, s.value, s.label)
	}
	p, err := parseProfile(pb.bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	want := map[string]int64{"mem": 3, "sim": 2, bucketGC: 4, bucketOther: 1, "guvm": 5}
	if a.Total != 15 || a.Alloc != 3 || len(a.Layers) != len(want) {
		t.Errorf("total %d alloc %d layers %v; want total 15, alloc 3, %v", a.Total, a.Alloc, a.Layers, want)
	}
	for l, n := range want {
		if a.Layers[l] != n {
			t.Errorf("layer %s: %d samples, want %d", l, a.Layers[l], n)
		}
	}
}

// protoEncoder encodes a minimal profile.proto: samples, locations with
// line entries, functions and the string table.
type protoEncoder struct {
	samples, locs, funcs []byte
	nlocs                uint64
	strs                 []string
	strIdx               map[string]uint64
	funcIdx              map[string]uint64
}

func (b *protoEncoder) str(s string) uint64 {
	if b.strIdx == nil {
		b.strIdx = map[string]uint64{}
		b.strs = []string{""}
		b.strIdx[""] = 0
	}
	if i, ok := b.strIdx[s]; ok {
		return i
	}
	b.strIdx[s] = uint64(len(b.strs))
	b.strs = append(b.strs, s)
	return b.strIdx[s]
}

func (b *protoEncoder) function(name string) uint64 {
	if b.funcIdx == nil {
		b.funcIdx = map[string]uint64{}
	}
	if id, ok := b.funcIdx[name]; ok {
		return id
	}
	id := uint64(len(b.funcIdx) + 1)
	b.funcIdx[name] = id
	b.funcs = field(b.funcs, 5, varintField(varintField(nil, 1, id), 2, b.str(name)))
	return id
}

func (b *protoEncoder) location(names []string) uint64 {
	b.nlocs++
	id := b.nlocs
	loc := varintField(nil, 1, id)
	for _, n := range names {
		loc = field(loc, 4, varintField(nil, 1, b.function(n)))
	}
	b.locs = field(b.locs, 4, loc)
	return id
}

func (b *protoEncoder) sample(locs []uint64, value int64, label string) {
	var packed []byte
	for _, l := range locs {
		packed = appendVarint(packed, l)
	}
	s := field(nil, 1, packed)
	s = varintField(s, 2, uint64(value)) // unpacked, as the reader must also accept
	if label != "" {
		s = field(s, 3, varintField(varintField(nil, 1, b.str("bench")), 2, b.str(label)))
	}
	b.samples = field(b.samples, 2, s)
}

func (b *protoEncoder) bytes() []byte {
	out := append(append(append([]byte(nil), b.samples...), b.locs...), b.funcs...)
	for _, s := range b.strs {
		out = field(out, 6, []byte(s))
	}
	return out
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func varintField(b []byte, num int, v uint64) []byte {
	return appendVarint(appendVarint(b, uint64(num)<<3), v)
}

func field(b []byte, num int, payload []byte) []byte {
	b = appendVarint(b, uint64(num)<<3|2)
	return append(appendVarint(b, uint64(len(payload))), payload...)
}
