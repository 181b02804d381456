package workloads

import (
	"strings"
	"testing"
	"testing/quick"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

const sampleTrace = `
# two allocations, three blocks
alloc 4194304 hostinit
alloc 2097152
0 r 0 0 8
0 c 5000
0 w 1 0 4
1 r 0 512 16
1 p 0 0 32
2 c 1000
`

func TestParseTrace(t *testing.T) {
	w, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.AllocBytes) != 2 || !w.HostInit[0] || w.HostInit[1] {
		t.Fatalf("allocs = %v hostinit %v", w.AllocBytes, w.HostInit)
	}
	if len(w.Ops) != 6 {
		t.Fatalf("ops = %d", len(w.Ops))
	}
	if w.Ops[0].Kind != "r" || w.Ops[0].Count != 8 {
		t.Fatalf("op0 = %+v", w.Ops[0])
	}
	if w.Ops[1].Kind != "c" || w.Ops[1].Count != 5000 {
		t.Fatalf("op1 = %+v", w.Ops[1])
	}
}

func TestReplayPhases(t *testing.T) {
	w, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	bases := fakeBases(w.Allocs())
	phases := w.Phases(bases)
	if len(phases) != 1 {
		t.Fatalf("phases = %d", len(phases))
	}
	k := phases[0].Kernel
	if k.NumBlocks != 3 {
		t.Fatalf("blocks = %d, want 3", k.NumBlocks)
	}
	// Block 0: read(8), compute, write(4).
	prog := k.BlockProgram(0)[0]
	ops := prog.Ops
	if len(ops) != 3 || ops[0].Kind != gpu.OpRead || ops[1].Kind != gpu.OpCompute ||
		ops[2].Kind != gpu.OpWrite {
		t.Fatalf("block 0 prog = %+v", prog)
	}
	if got := prog.AppendPages(nil, ops[2])[0]; got != mem.PageOf(bases[1]) {
		t.Fatalf("write targets page %d, want alloc-1 base", got)
	}
	// Block 1 prefetch op present.
	prog1 := k.BlockProgram(1)[0]
	if op := prog1.Ops[1]; op.Kind != gpu.OpPrefetch || prog1.NumPages(op) != 32 {
		t.Fatalf("block 1 prefetch = %+v", op)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"0 r 0 0 8",                       // op before alloc
		"alloc 0",                         // zero size
		"alloc abc",                       // bad size
		"alloc 4096\n0 r 0 0 2",           // pages exceed alloc
		"alloc 4096\n0 x 0 0 1",           // unknown kind
		"alloc 4096\n0 r 1 0 1",           // alloc index out of range
		"alloc 4096\nnope r 0 0 1",        // bad block
		"alloc 4096\n0 c notanumber",      // bad duration
		"alloc 4096\n0 r 0",               // too few fields
		"alloc 4194304\n0 r 0 99999999 1", // page out of range
	}
	for i, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	w, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := w.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, sb.String())
	}
	if len(w2.Ops) != len(w.Ops) {
		t.Fatalf("ops %d != %d", len(w2.Ops), len(w.Ops))
	}
	for i := range w.Ops {
		if w.Ops[i] != w2.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, w.Ops[i], w2.Ops[i])
		}
	}
}

// Property: any generated trace round-trips through write+parse.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(blocks []uint8, kinds []uint8) bool {
		w := &Replay{AllocBytes: []uint64{8 << 20}, HostInit: []bool{true}}
		n := len(blocks)
		if len(kinds) < n {
			n = len(kinds)
		}
		for i := 0; i < n; i++ {
			kind := []string{"r", "w", "p", "c"}[kinds[i]%4]
			op := TraceOp{Block: int(blocks[i] % 8), Kind: kind}
			if kind == "c" {
				op.Count = uint64(kinds[i])*100 + 1
			} else {
				op.Page = uint64(blocks[i]) % 2000
				op.Count = uint64(kinds[i]%16) + 1
			}
			w.Ops = append(w.Ops, op)
		}
		var sb strings.Builder
		if err := w.WriteTrace(&sb); err != nil {
			return false
		}
		w2, err := ParseTrace(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if len(w2.Ops) != len(w.Ops) {
			return false
		}
		for i := range w.Ops {
			if w.Ops[i] != w2.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplayName(t *testing.T) {
	if (&Replay{}).Name() != "replay" {
		t.Fatal("default name wrong")
	}
	if (&Replay{TraceName: "bfs"}).Name() != "replay-bfs" {
		t.Fatal("named trace wrong")
	}
}
