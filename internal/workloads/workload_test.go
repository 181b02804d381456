package workloads

import (
	"errors"
	"strings"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/mem"
)

// allWorkloads returns one small instance of every workload.
func allWorkloads() []Workload {
	return []Workload{
		NewVecAddPaper(),
		NewVecAddPrefetch(),
		NewRegular(16<<20, 32),
		NewRandom(16<<20, 16, 50, 42),
		NewStream(8<<20, 16),
		NewSGEMM(1024),
		NewDGEMM(512),
		NewFFT(1<<20, 16),
		NewGaussSeidel(1024, 2),
		NewHPGMG(16<<20, 4),
		NewSpMV(1<<16, 8, 3),
	}
}

// fakeBases assigns VABlock-aligned, non-overlapping bases like the driver.
func fakeBases(allocs []Alloc) []mem.Addr {
	bases := make([]mem.Addr, len(allocs))
	next := mem.Addr(mem.VABlockSize)
	for i, a := range allocs {
		bases[i] = next
		next += mem.Addr(mem.AlignUp(a.Bytes, mem.VABlockSize))
	}
	return bases
}

// collectPages walks every op of every phase, returning all touched pages.
func collectPages(t *testing.T, w Workload, bases []mem.Addr) []mem.PageID {
	t.Helper()
	var pages []mem.PageID
	for _, ph := range w.Phases(bases) {
		pages = appendKernelPages(pages, ph.Kernel)
	}
	return pages
}

// appendKernelPages appends every page a kernel's warps access, block by
// block and in execution order, to dst.
func appendKernelPages(dst []mem.PageID, k gpu.Kernel) []mem.PageID {
	for b := 0; b < k.NumBlocks; b++ {
		for _, prog := range k.BlockProgram(b) {
			dst = prog.AppendAccesses(dst)
		}
	}
	return dst
}

func TestAllWorkloadsWellFormed(t *testing.T) {
	for _, w := range allWorkloads() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			allocs := w.Allocs()
			if len(allocs) == 0 {
				t.Fatal("no allocations")
			}
			var lo, hi mem.PageID
			bases := fakeBases(allocs)
			lo = mem.PageOf(bases[0])
			last := len(allocs) - 1
			hi = mem.PageOf(bases[last] + mem.Addr(mem.AlignUp(allocs[last].Bytes, mem.VABlockSize)))
			phases := w.Phases(bases)
			if len(phases) == 0 {
				t.Fatal("no phases")
			}
			pages := collectPages(t, w, bases)
			if len(pages) == 0 {
				t.Fatal("workload touches no pages")
			}
			for _, p := range pages {
				if p < lo || p >= hi {
					t.Fatalf("page %d outside allocations [%d, %d)", p, lo, hi)
				}
			}
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, mk := range []func() Workload{
		func() Workload { return NewRandom(8<<20, 8, 30, 7) },
		func() Workload { return NewSGEMM(512) },
		func() Workload { return NewHPGMG(8<<20, 2) },
	} {
		a, b := mk(), mk()
		ba := fakeBases(a.Allocs())
		bb := fakeBases(b.Allocs())
		pa := collectPages(t, a, ba)
		pb := collectPages(t, b, bb)
		if len(pa) != len(pb) {
			t.Fatalf("%s: nondeterministic page count %d vs %d", a.Name(), len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: page %d differs", a.Name(), i)
			}
		}
	}
}

func TestVecAddPaperShape(t *testing.T) {
	w := NewVecAddPaper()
	bases := fakeBases(w.Allocs())
	phases := w.Phases(bases)
	if len(phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(phases))
	}
	progs := phases[0].Kernel.BlockProgram(0)
	if len(progs) != 1 {
		t.Fatalf("warps = %d, want 1", len(progs))
	}
	prog := progs[0]
	if len(prog.Ops) != 9 { // 3 iterations x (read, read, write)
		t.Fatalf("ops = %d, want 9", len(prog.Ops))
	}
	for i, op := range prog.Ops {
		if n := prog.NumPages(op); n != 32 {
			t.Fatalf("op %d touches %d pages, want 32", i, n)
		}
		switch i % 3 {
		case 0, 1:
			if op.Kind != gpu.OpRead {
				t.Fatalf("op %d kind = %v, want read", i, op.Kind)
			}
		case 2:
			if op.Kind != gpu.OpWrite || op.Deps != gpu.Regs(0, 1) {
				t.Fatalf("op %d not a 2-dep write", i)
			}
		}
	}
	// Each op's pages are all distinct (one page per thread).
	seen := map[mem.PageID]bool{}
	for _, p := range prog.AppendPages(nil, prog.Ops[0]) {
		if seen[p] {
			t.Fatal("duplicate page within warp op")
		}
		seen[p] = true
	}
}

func TestVecAddPrefetchShape(t *testing.T) {
	w := NewVecAddPrefetch()
	bases := fakeBases(w.Allocs())
	prog := w.Phases(bases)[0].Kernel.BlockProgram(0)[0]
	npf := 0
	for _, op := range prog.Ops {
		if op.Kind == gpu.OpPrefetch {
			npf++
			if n := prog.NumPages(op); n != 256 {
				t.Fatalf("prefetch op touches %d pages, want 256", n)
			}
		}
	}
	if npf != 3 {
		t.Fatalf("prefetch ops = %d, want 3", npf)
	}
}

func TestRegularPartitionsCoverArray(t *testing.T) {
	w := NewRegular(8<<20, 16)
	bases := fakeBases(w.Allocs())
	pages := collectPages(t, w, bases)
	distinct := map[mem.PageID]bool{}
	for _, p := range pages {
		distinct[p] = true
	}
	want := int(w.Bytes / mem.PageSize)
	if len(distinct) != want {
		t.Fatalf("regular covers %d pages, want %d", len(distinct), want)
	}
	// Sequential access: no page repeats at all.
	if len(pages) != want {
		t.Fatalf("regular touched %d accesses, want %d (no reuse)", len(pages), want)
	}
}

func TestRandomSpreadsAcrossBlocks(t *testing.T) {
	w := NewRandom(64<<20, 32, 100, 1)
	bases := fakeBases(w.Allocs())
	pages := collectPages(t, w, bases)
	blocks := map[mem.VABlockID]bool{}
	for _, p := range pages {
		blocks[p.VABlock()] = true
	}
	// 3200 uniform accesses over 32 VABlocks: all blocks hit.
	if len(blocks) != 32 {
		t.Fatalf("random hit %d blocks, want 32", len(blocks))
	}
}

func TestGEMMPanelSharing(t *testing.T) {
	w := NewSGEMM(1024) // 4x4 tiles of 256
	bases := fakeBases(w.Allocs())
	k := w.Phases(bases)[0].Kernel
	if k.NumBlocks != 16 {
		t.Fatalf("blocks = %d, want 16", k.NumBlocks)
	}
	// Blocks 0 and 1 are in the same tile row: same A panels.
	aPages := func(b int) map[mem.PageID]bool {
		set := map[mem.PageID]bool{}
		prog := k.BlockProgram(b)[0]
		if prog.Ops[0].Kind != gpu.OpRead {
			t.Fatal("first op not a read")
		}
		for _, p := range prog.AppendPages(nil, prog.Ops[0]) {
			set[p] = true
		}
		return set
	}
	a0, a1 := aPages(0), aPages(1)
	sharedRow := 0
	for p := range a0 {
		if a1[p] {
			sharedRow++
		}
	}
	if sharedRow == 0 {
		t.Fatal("same-tile-row blocks share no A pages")
	}
}

func TestGEMMWritesCoverC(t *testing.T) {
	w := NewSGEMM(512)
	bases := fakeBases(w.Allocs())
	k := w.Phases(bases)[0].Kernel
	writes := map[mem.PageID]bool{}
	for b := 0; b < k.NumBlocks; b++ {
		prog := k.BlockProgram(b)[0]
		for _, op := range prog.Ops {
			if op.Kind == gpu.OpWrite {
				for _, p := range prog.AppendPages(nil, op) {
					writes[p] = true
				}
			}
		}
	}
	cBase := mem.PageOf(bases[2])
	cPages := int(w.MatrixBytes() / mem.PageSize)
	for i := 0; i < cPages; i++ {
		if !writes[cBase+mem.PageID(i)] {
			t.Fatalf("C page %d never written", i)
		}
	}
}

func TestGEMMPanicsOnBadTile(t *testing.T) {
	w := NewSGEMM(1000) // not divisible by 256
	bases := fakeBases(w.Allocs())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Phases(bases)
}

func TestFFTPassesAlternateBuffers(t *testing.T) {
	w := NewFFT(1<<21, 16) // 16 MB: 4096 pages
	bases := fakeBases(w.Allocs())
	phases := w.Phases(bases)
	if len(phases) < 2 {
		t.Fatalf("fft has %d passes, want >= 2", len(phases))
	}
	// Pass 0 reads src (alloc 0), pass 1 reads dst (alloc 1).
	srcOf := func(ph Phase) mem.VABlockID {
		prog := ph.Kernel.BlockProgram(0)[0]
		return prog.Runs[prog.Ops[0].Lo].First.VABlock()
	}
	a0 := mem.VABlockOf(bases[0])
	a1 := mem.VABlockOf(bases[1])
	nBlocks := mem.VABlockID(mem.AlignUp(w.arrayBytes(), mem.VABlockSize) / mem.VABlockSize)
	in0 := srcOf(phases[0])
	in1 := srcOf(phases[1])
	if !(in0 >= a0 && in0 < a0+nBlocks) {
		t.Fatalf("pass 0 reads block %d, want in src", in0)
	}
	if !(in1 >= a1 && in1 < a1+nBlocks) {
		t.Fatalf("pass 1 reads block %d, want in dst", in1)
	}
}

func TestGaussSeidelReusesGrid(t *testing.T) {
	w := NewGaussSeidel(512, 3)
	bases := fakeBases(w.Allocs())
	phases := w.Phases(bases)
	if len(phases) != 3 {
		t.Fatalf("phases = %d, want 3 iterations", len(phases))
	}
	// Same pages each sweep.
	p0 := map[mem.PageID]bool{}
	for _, p := range appendKernelPages(nil, phases[0].Kernel) {
		p0[p] = true
	}
	for _, p := range appendKernelPages(nil, phases[1].Kernel) {
		if !p0[p] {
			t.Fatalf("sweep 2 touches new page %d", p)
		}
	}
}

func TestHPGMGHostPhasesBetweenCycles(t *testing.T) {
	w := NewHPGMG(16<<20, 8)
	bases := fakeBases(w.Allocs())
	phases := w.Phases(bases)
	hostPhases := 0
	for _, ph := range phases {
		if len(ph.HostTouches) > 0 {
			hostPhases++
			if ph.HostTouches[0].Threads != 8 {
				t.Fatalf("host touch threads = %d, want 8", ph.HostTouches[0].Threads)
			}
		}
	}
	if hostPhases != w.VCycles-1 {
		t.Fatalf("host phases = %d, want %d", hostPhases, w.VCycles-1)
	}
}

func TestHPGMGLevelsShrink(t *testing.T) {
	w := NewHPGMG(64<<20, 1)
	allocs := w.Allocs()
	if len(allocs) != w.Levels {
		t.Fatalf("allocs = %d, want %d levels", len(allocs), w.Levels)
	}
	for l := 1; l < len(allocs); l++ {
		if allocs[l].Bytes > allocs[l-1].Bytes {
			t.Fatalf("level %d larger than level %d", l, l-1)
		}
	}
	if allocs[1].Bytes*8 != allocs[0].Bytes {
		t.Fatalf("level 1 not 1/8 of fine: %d vs %d", allocs[1].Bytes, allocs[0].Bytes)
	}
}

func TestPagesInHelper(t *testing.T) {
	base := mem.Addr(mem.VABlockSize)
	if _, n := spanIn(base, 0, 0); n != 0 {
		t.Fatal("zero-length range returned pages")
	}
	first, n := spanIn(base, 100, 10) // within one page
	if n != 1 || first != mem.PageOf(base) {
		t.Fatalf("single-page range = %d pages from %d", n, first)
	}
	if _, n = spanIn(base, mem.PageSize-1, 2); n != 2 { // crosses a page boundary
		t.Fatalf("boundary range = %d pages", n)
	}
}

func TestDedupPages(t *testing.T) {
	got := dedupPages([]mem.PageID{5, 3, 5, 1, 3})
	want := []mem.PageID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedup = %v, want %v", got, want)
		}
	}
	if got := dedupPages(nil); got != nil {
		t.Fatal("dedup(nil) != nil")
	}
}

func TestSpMVWellFormed(t *testing.T) {
	w := NewSpMV(1<<16, 16, 7)
	bases := fakeBases(w.Allocs())
	pages := collectPages(t, w, bases)
	if len(pages) == 0 {
		t.Fatal("spmv touches no pages")
	}
	// Gathers into x land inside x's allocation only.
	xLo := mem.PageOf(bases[2])
	xHi := mem.PageOf(bases[3])
	yHi := xHi + mem.PageID(mem.AlignUp(w.Allocs()[3].Bytes, mem.VABlockSize)/mem.PageSize)
	for _, p := range pages {
		if p >= yHi {
			t.Fatalf("page %d beyond allocations", p)
		}
	}
	_ = xLo
}

func TestSpMVSkewConcentratesGathers(t *testing.T) {
	// Measure the fraction of gather accesses landing in the hub (the
	// first 1/16 of x): high skew concentrates them there.
	hubFraction := func(skew float64) float64 {
		w := NewSpMV(1<<18, 16, 7)
		w.Skew = skew
		bases := fakeBases(w.Allocs())
		xLo := mem.PageOf(bases[2])
		xPages := mem.PageID(mem.AlignUp(w.Allocs()[2].Bytes, mem.PageSize) / mem.PageSize)
		hubHi := xLo + xPages/16
		total, hub := 0, 0
		for _, p := range collectPages(t, w, bases) {
			if p >= xLo && p < xLo+xPages {
				total++
				if p < hubHi {
					hub++
				}
			}
		}
		if total == 0 {
			t.Fatal("no gathers observed")
		}
		return float64(hub) / float64(total)
	}
	skewed, uniform := hubFraction(0.95), hubFraction(0.0)
	if skewed < 2*uniform {
		t.Fatalf("hub fraction skewed %.2f vs uniform %.2f: want >= 2x", skewed, uniform)
	}
}

func TestSpMVDeterministic(t *testing.T) {
	mk := func() Workload { return NewSpMV(1<<16, 8, 3) }
	a, b := mk(), mk()
	pa := collectPages(t, a, fakeBases(a.Allocs()))
	pb := collectPages(t, b, fakeBases(b.Allocs()))
	if len(pa) != len(pb) {
		t.Fatal("nondeterministic")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("page stream differs")
		}
	}
}

func TestVecAddCoalescedShape(t *testing.T) {
	w := NewVecAddCoalesced()
	bases := fakeBases(w.Allocs())
	progs := w.Phases(bases)[0].Kernel.BlockProgram(0)
	if len(progs) != 4 {
		t.Fatalf("warps = %d, want 4", len(progs))
	}
	for _, prog := range progs {
		if len(prog.Ops) != 3 || prog.Ops[2].Kind != gpu.OpWrite || prog.Ops[2].Deps != gpu.Regs(0, 1) {
			t.Fatalf("warp prog shape wrong: %+v", prog)
		}
	}
}

// TestBlockProgramAllocs pins kernel program generation at one allocation
// per program slice: each program's ops and runs are copied out of the
// generator's looper in storage of their exact size, and hold no per-op
// page lists, so a block costs the same few allocations however many
// chunks it sweeps. Repeated chunks are looped passes, so a Stream
// block's slices are as long at 1 GiB as at 64 MiB, and a Random block's
// accesses are one hashed loop that keeps no generator.
func TestBlockProgramAllocs(t *testing.T) {
	phase := func(w Workload, name string) gpu.Kernel {
		for _, ph := range w.Phases(fakeBases(w.Allocs())) {
			if ph.Name == name {
				return ph.Kernel
			}
		}
		t.Fatalf("%s has no %s phase", w.Name(), name)
		return gpu.Kernel{}
	}
	for _, c := range []struct {
		w     Workload
		phase string
		want  float64 // ops + runs per program, plus the []Program
	}{
		{NewStream(64<<20, 24), "triad", 5},                  // lead warp and shared shadow program
		{NewHPGMG(64<<20, 32), "smooth-down", 3},             // one smoothing warp
		{NewHPGMG(64<<20, 32), "restrict", 3},                // one transfer warp
		{NewHPGMG(64<<20, 32), "prolong", 3},                 // one transfer warp
		{NewFFT(1<<22, 16), "fft-pass", 3},                   // one butterfly warp
		{NewGaussSeidel(4096, 1), "sweep", 3},                // one stripe of bands
		{NewSGEMM(2048), "sgemm", 3},                         // one tile
		{NewRandom(512<<20, 160, 300, 11), "random-read", 3}, // one hashed loop
	} {
		k := phase(c.w, c.phase)
		if got := testing.AllocsPerRun(20, func() { k.BlockProgram(0) }); got != c.want {
			t.Errorf("%s %s: BlockProgram(0) makes %v allocations, want %v", c.w.Name(), c.phase, got, c.want)
		}
	}
	block0 := func(bytes uint64) []gpu.Program {
		w := NewStream(bytes, 24)
		return w.Phases(fakeBases(w.Allocs()))[0].Kernel.BlockProgram(0)
	}
	small, large := block0(64<<20), block0(1<<30)
	for i := range small {
		if len(small[i].Ops) != len(large[i].Ops) || len(small[i].Runs) != len(large[i].Runs) {
			t.Errorf("stream warp %d: %d ops over %d runs at 64 MiB, %d over %d at 1 GiB",
				i, len(small[i].Ops), len(small[i].Runs), len(large[i].Ops), len(large[i].Runs))
		}
	}
}

// TestCatalogByName checks that every catalog name builds a workload,
// that each call of the returned constructor builds a fresh one, that
// hpgmg takes its host-thread count, and that an unknown name is
// rejected with the valid names.
func TestCatalogByName(t *testing.T) {
	for _, name := range CatalogNames() {
		mk, err := ByName(name, 4, 256, 11, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := mk(), mk(); a == nil || a == b {
			t.Errorf("%s: constructor returned %p and %p, want two fresh workloads", name, a, b)
		}
	}
	mk, _ := ByName("hpgmg", 4, 0, 0, 3)
	if got := mk().(*HPGMG).HostThreads; got != 3 {
		t.Errorf("hpgmg HostThreads = %d, want 3", got)
	}
	_, err := ByName("nope", 4, 256, 11, 1)
	if err == nil || !strings.Contains(err.Error(), strings.Join(CatalogNames(), " ")) {
		t.Errorf("unknown name: error %v does not list the catalog", err)
	}
}

// TestCatalogRejectsHostThreads: a host-thread count the host VM cannot
// tell apart is a *hostos.ThreadCountError from ByName, not a run that
// silently models fewer threads; the limit itself builds.
func TestCatalogRejectsHostThreads(t *testing.T) {
	for _, threads := range []int{0, hostos.MaxThreads + 1, 128} {
		_, err := ByName("hpgmg", 4, 0, 0, threads)
		var te *hostos.ThreadCountError
		if !errors.As(err, &te) || te.Threads != threads {
			t.Errorf("ByName with %d host threads: error %v, want a *hostos.ThreadCountError", threads, err)
		}
	}
	if _, err := ByName("hpgmg", 4, 0, 0, hostos.MaxThreads); err != nil {
		t.Errorf("ByName with %d host threads: %v", hostos.MaxThreads, err)
	}
}
