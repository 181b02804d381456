package mem

import "math/bits"

// PageSet is a fixed 512-bit set tracking per-page state within one VABlock
// (residency, dirtiness, CPU mappings, ...). The zero value is empty.
//
// Page i lives in bit i&63 of word i>>6. Set, Clear and Has touch one
// bit; every other operation works on whole 64-bit words: Count, Any,
// Full, SetAll, Union and Subtract over all eight, CountRange and
// SetRange over the words a range covers with masked edge words, and
// Spans and RunFrom by skipping runs of zeros and ones a word at a time.
type PageSet [PagesPerVABlock / 64]uint64

// Set marks page index i.
func (s *PageSet) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks page index i.
func (s *PageSet) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether page index i is marked.
func (s *PageSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of marked pages.
func (s *PageSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// rangeMasks returns the word indices holding pages lo and hi-1 and the
// masks selecting the range's bits in those two words. The range must be
// non-empty.
func rangeMasks(lo, hi int) (first, last int, loMask, hiMask uint64) {
	return lo >> 6, (hi - 1) >> 6, ^uint64(0) << (uint(lo) & 63), ^uint64(0) >> (63 - (uint(hi-1) & 63))
}

// CountRange returns the number of marked pages with index in [lo, hi).
func (s *PageSet) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last, loMask, hiMask := rangeMasks(lo, hi)
	if first == last {
		return bits.OnesCount64(s[first] & loMask & hiMask)
	}
	n := bits.OnesCount64(s[first] & loMask)
	for _, w := range s[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(s[last]&hiMask)
}

// SetRange marks every page with index in [lo, hi).
func (s *PageSet) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last, loMask, hiMask := rangeMasks(lo, hi)
	if first == last {
		s[first] |= loMask & hiMask
		return
	}
	s[first] |= loMask
	for i := first + 1; i < last; i++ {
		s[i] = ^uint64(0)
	}
	s[last] |= hiMask
}

// Reset clears all pages.
func (s *PageSet) Reset() { *s = PageSet{} }

// Any reports whether at least one page is marked.
func (s *PageSet) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Full reports whether all 512 pages are marked.
func (s *PageSet) Full() bool { return s.Count() == PagesPerVABlock }

// SetAll marks all 512 pages.
func (s *PageSet) SetAll() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// Union merges o into s.
func (s *PageSet) Union(o *PageSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Subtract clears every page marked in o.
func (s *PageSet) Subtract(o *PageSet) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// Spans appends the maximal runs of marked pages of block b, ascending,
// to dst and returns it. It equals CoalescePagesInto(dst, s.Pages(nil, b))
// without staging the page list: runs are found a word at a time and may
// cross word boundaries.
func (s *PageSet) Spans(dst []Span, b VABlockID) []Span {
	first := b.FirstPage()
	for i := s.next(0, 0); i < PagesPerVABlock; {
		end := s.next(i, ^uint64(0))
		dst = append(dst, Span{First: first + PageID(i), Count: end - i})
		i = s.next(end, 0)
	}
	return dst
}

// RunFrom returns how many consecutive pages from index i on are marked:
// 0 when page i is not, PagesPerVABlock-i when every page from i to the
// block's end is. It skips whole words of ones.
func (s *PageSet) RunFrom(i int) int { return s.next(i, ^uint64(0)) - i }

// next returns the lowest page index at or after i whose bit differs from
// the bits of flip (0 finds the next marked page, all ones the next
// unmarked one), or PagesPerVABlock if there is none.
func (s *PageSet) next(i int, flip uint64) int {
	for wi := i >> 6; wi < len(s); wi++ {
		w := s[wi] ^ flip
		if wi == i>>6 {
			w &= ^uint64(0) << (uint(i) & 63)
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return PagesPerVABlock
}

// Pages appends the PageIDs of all marked pages of block b, ascending, to
// dst and returns it.
func (s *PageSet) Pages(dst []PageID, b VABlockID) []PageID {
	for wi, w := range s {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, b.PageAt(wi*64+bit))
			w &^= 1 << uint(bit)
		}
	}
	return dst
}

// Indices appends the indices of all marked pages, ascending, to dst and
// returns it.
func (s *PageSet) Indices(dst []int) []int {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return dst
}
