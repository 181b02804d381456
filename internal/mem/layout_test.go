package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestGranularityConstants(t *testing.T) {
	if PagesPerVABlock != 512 {
		t.Errorf("PagesPerVABlock = %d, want 512", PagesPerVABlock)
	}
	if PagesPerRegion != 16 {
		t.Errorf("PagesPerRegion = %d, want 16", PagesPerRegion)
	}
	if RegionsPerBlock != 32 {
		t.Errorf("RegionsPerBlock = %d, want 32", RegionsPerBlock)
	}
}

func TestPageAndBlockArithmetic(t *testing.T) {
	a := Addr(5*VABlockSize + 37*PageSize + 123)
	p := PageOf(a)
	if p.Addr() != Addr(5*VABlockSize+37*PageSize) {
		t.Errorf("page base = %v", p.Addr())
	}
	if p.VABlock() != 5 {
		t.Errorf("VABlock = %d, want 5", p.VABlock())
	}
	if p.IndexInBlock() != 37 {
		t.Errorf("IndexInBlock = %d, want 37", p.IndexInBlock())
	}
	if p.Region() != 37/16 {
		t.Errorf("Region = %d, want %d", p.Region(), 37/16)
	}
	if VABlockOf(a) != 5 {
		t.Errorf("VABlockOf = %d, want 5", VABlockOf(a))
	}
	b := VABlockID(5)
	if b.PageAt(37) != p {
		t.Errorf("PageAt(37) = %d, want %d", b.PageAt(37), p)
	}
	if b.FirstPage() != PageID(5*512) {
		t.Errorf("FirstPage = %d", b.FirstPage())
	}
	if b.Addr() != Addr(5*VABlockSize) {
		t.Errorf("block addr = %v", b.Addr())
	}
}

func TestPageAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VABlockID(0).PageAt(512)
}

func TestAlignUp(t *testing.T) {
	cases := []struct{ n, align, want uint64 }{
		{0, 4096, 0},
		{1, 4096, 4096},
		{4096, 4096, 4096},
		{4097, 4096, 8192},
		{VABlockSize - 1, VABlockSize, VABlockSize},
	}
	for _, c := range cases {
		if got := AlignUp(c.n, c.align); got != c.want {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.n, c.align, got, c.want)
		}
	}
}

func TestSpan(t *testing.T) {
	s := Span{First: 100, Count: 8}
	if !s.Contains(100) || !s.Contains(107) || s.Contains(108) || s.Contains(99) {
		t.Error("Contains boundary behaviour wrong")
	}
	if s.Bytes() != 8*PageSize {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if s.End() != 108 {
		t.Errorf("End = %d", s.End())
	}
}

func TestCoalescePages(t *testing.T) {
	pages := []PageID{1, 2, 3, 7, 8, 20}
	spans := CoalescePages(pages)
	want := []Span{{1, 3}, {7, 2}, {20, 1}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans = %v, want %v", spans, want)
		}
	}
	if CoalescePages(nil) != nil {
		t.Error("CoalescePages(nil) != nil")
	}
	one := CoalescePages([]PageID{42})
	if len(one) != 1 || one[0] != (Span{42, 1}) {
		t.Errorf("single page: %v", one)
	}
}

// Property: coalesced spans exactly cover the input pages.
func TestCoalesceCoversInput(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build a sorted, distinct page list.
		seen := map[PageID]bool{}
		for _, r := range raw {
			seen[PageID(r)] = true
		}
		var pages []PageID
		for p := PageID(0); p < 1<<16; p++ {
			if seen[p] {
				pages = append(pages, p)
			}
		}
		spans := CoalescePages(pages)
		total := 0
		for _, s := range spans {
			total += s.Count
			for p := s.First; p < s.End(); p++ {
				if !seen[p] {
					return false
				}
			}
		}
		return total == len(pages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPageSetBasics(t *testing.T) {
	var s PageSet
	if s.Any() || s.Count() != 0 {
		t.Fatal("zero PageSet not empty")
	}
	s.Set(0)
	s.Set(511)
	s.Set(64)
	if !s.Has(0) || !s.Has(511) || !s.Has(64) || s.Has(1) {
		t.Fatal("Set/Has wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	idx := s.Indices(nil)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 511 {
		t.Fatalf("Indices = %v", idx)
	}
}

func TestPageSetFullAndSetAll(t *testing.T) {
	var s PageSet
	s.SetAll()
	if !s.Full() || s.Count() != 512 {
		t.Fatal("SetAll not full")
	}
	s.Clear(200)
	if s.Full() {
		t.Fatal("Full after Clear")
	}
	s.Reset()
	if s.Any() {
		t.Fatal("Reset not empty")
	}
}

func TestPageSetUnionSubtract(t *testing.T) {
	var a, b PageSet
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	a.Union(&b)
	if a.Count() != 3 || !a.Has(3) {
		t.Fatal("Union wrong")
	}
	a.Subtract(&b)
	if a.Count() != 1 || !a.Has(1) {
		t.Fatal("Subtract wrong")
	}
}

func TestPageSetCountRange(t *testing.T) {
	var s PageSet
	for i := 10; i < 30; i++ {
		s.Set(i)
	}
	if got := s.CountRange(0, 512); got != 20 {
		t.Errorf("CountRange full = %d", got)
	}
	if got := s.CountRange(15, 25); got != 10 {
		t.Errorf("CountRange(15,25) = %d", got)
	}
	if got := s.CountRange(30, 40); got != 0 {
		t.Errorf("CountRange empty = %d", got)
	}
}

// Property: Count equals number of distinct indices set.
func TestPageSetCountMatchesDistinct(t *testing.T) {
	f := func(raw []uint16) bool {
		var s PageSet
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r) % 512
			s.Set(i)
			distinct[i] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Indices returns ascending order matching Has.
func TestPageSetIndicesSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		var s PageSet
		for _, r := range raw {
			s.Set(int(r) % 512)
		}
		idx := s.Indices(nil)
		for i, v := range idx {
			if !s.Has(v) {
				return false
			}
			if i > 0 && idx[i-1] >= v {
				return false
			}
		}
		return len(idx) == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// boundaryEnds are range ends on or next to every word boundary of a
// PageSet, where the word-level masks of CountRange and SetRange change.
var boundaryEnds = []int{0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 191, 192, 193,
	255, 256, 257, 319, 320, 383, 384, 447, 448, 449, 510, 511, 512}

// patternSet is a fixed, irregular set with both runs and holes in every
// word.
func patternSet() PageSet {
	var s PageSet
	x := uint64(0x9e3779b97f4a7c15)
	for i := range s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s[i] = x
	}
	return s
}

// countRangeBits and setRangeBits are the per-bit reference versions of
// CountRange and SetRange.
func countRangeBits(s *PageSet, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if s.Has(i) {
			n++
		}
	}
	return n
}

func setRangeBits(s *PageSet, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Set(i)
	}
}

func TestPageSetRangesAtWordBoundaries(t *testing.T) {
	base := patternSet()
	for _, lo := range boundaryEnds {
		for _, hi := range boundaryEnds {
			if got, want := base.CountRange(lo, hi), countRangeBits(&base, lo, hi); got != want {
				t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, hi, got, want)
			}
			for _, start := range []PageSet{{}, base} {
				got, want := start, start
				got.SetRange(lo, hi)
				setRangeBits(&want, lo, hi)
				if got != want {
					t.Fatalf("SetRange(%d, %d) on %x = %x, want %x", lo, hi, start, got, want)
				}
			}
		}
	}
}

// Property: CountRange and SetRange match the per-bit loops on random
// sets and ranges, including empty, reversed and full ones.
func TestPageSetRangesMatchBitLoops(t *testing.T) {
	f := func(s PageSet, a, b uint16) bool {
		ranges := [][2]int{{int(a) % 513, int(b) % 513}, {0, 512}, {int(a) % 513, int(a) % 513}}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			if s.CountRange(lo, hi) != countRangeBits(&s, lo, hi) {
				return false
			}
			got, want := s, s
			got.SetRange(lo, hi)
			setRangeBits(&want, lo, hi)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// spansOracle is Spans by way of the staged page list it replaces.
func spansOracle(s *PageSet, b VABlockID) []Span {
	return CoalescePagesInto(nil, s.Pages(nil, b))
}

func TestPageSetSpansEdgeCases(t *testing.T) {
	run := func(lo, hi int) PageSet {
		var s PageSet
		setRangeBits(&s, lo, hi)
		return s
	}
	var full PageSet
	full.SetAll()
	var crossing PageSet
	setRangeBits(&crossing, 60, 70)
	setRangeBits(&crossing, 120, 130)
	setRangeBits(&crossing, 440, 456)
	cases := map[string]PageSet{
		"empty":        {},
		"full":         full,
		"63|64":        run(63, 65),
		"127|128":      run(100, 200),
		"447|448":      run(447, 449),
		"three runs":   crossing,
		"ends at 511":  run(500, 512),
		"starts at 0":  run(0, 3),
		"all but ends": run(1, 511),
		"pattern":      patternSet(),
	}
	const b = VABlockID(7)
	for name, s := range cases {
		got, want := s.Spans(nil, b), spansOracle(&s, b)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Spans = %v, want %v", name, got, want)
		}
	}
	if got := full.Spans(nil, b); len(got) != 1 || got[0] != (Span{First: b.FirstPage(), Count: PagesPerVABlock}) {
		t.Errorf("full set: Spans = %v, want one whole-block span", got)
	}
	// Spans appends after whatever dst already holds.
	prefix := []Span{{First: 1, Count: 1}}
	s := run(63, 65)
	if got := s.Spans(prefix, b); len(got) != 2 || got[0] != prefix[0] || got[1] != (Span{First: b.FirstPage() + 63, Count: 2}) {
		t.Errorf("Spans with a non-empty dst = %v", got)
	}
}

// Property: Spans equals coalescing the set's page list, for random sets
// of every density.
func TestPageSetSpansMatchCoalesce(t *testing.T) {
	f := func(s PageSet, mask PageSet, blk uint32) bool {
		// Masking with a second random set thins the runs; OR-ing
		// lengthens them, so both short and word-crossing runs occur.
		sparse, dense := s, s
		for i := range s {
			sparse[i] &= mask[i]
			dense[i] |= mask[i]
		}
		b := VABlockID(blk)
		for _, set := range []PageSet{s, sparse, dense} {
			if !slices.Equal(set.Spans(nil, b), spansOracle(&set, b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// runFromBits is RunFrom as a per-bit loop.
func runFromBits(s *PageSet, i int) int {
	n := 0
	for i+n < PagesPerVABlock && s.Has(i+n) {
		n++
	}
	return n
}

// TestPageSetRunFrom: RunFrom matches the per-bit loop from every word
// edge (indices 0 and 511 included) of empty, full, word-crossing and
// irregular sets, and from every index of random sets.
func TestPageSetRunFrom(t *testing.T) {
	var full, crossing PageSet
	full.SetAll()
	setRangeBits(&crossing, 60, 70)
	setRangeBits(&crossing, 100, 448)
	setRangeBits(&crossing, 510, 512)
	cases := map[string]PageSet{
		"empty":    {},
		"full":     full,
		"crossing": crossing,
		"pattern":  patternSet(),
	}
	for name, s := range cases {
		for _, i := range boundaryEnds[:len(boundaryEnds)-1] {
			if got, want := s.RunFrom(i), runFromBits(&s, i); got != want {
				t.Errorf("%s: RunFrom(%d) = %d, want %d", name, i, got, want)
			}
		}
	}
	if got := full.RunFrom(0); got != PagesPerVABlock {
		t.Errorf("full set: RunFrom(0) = %d, want %d", got, PagesPerVABlock)
	}
	if got := full.RunFrom(511); got != 1 {
		t.Errorf("full set: RunFrom(511) = %d, want 1", got)
	}
	f := func(s, mask PageSet) bool {
		dense := s
		for i := range s {
			dense[i] |= mask[i]
		}
		for _, set := range []PageSet{s, dense} {
			for i := 0; i < PagesPerVABlock; i++ {
				if set.RunFrom(i) != runFromBits(&set, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
