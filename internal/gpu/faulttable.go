package gpu

import (
	"math/bits"

	"guvm/internal/mem"
)

// faultTable is one µTLB's set of pending fault entries. Entries keep
// insertion order, which is the order a replay rechecks their waiters in.
// A small open-addressed index (linear probing) finds an entry by page.
// A table only ever empties whole, at a replay or a kill, so the index
// never deletes and needs no tombstones. One type serves the capped
// replayable table and the uncapped prefetch table alike.
type faultTable struct {
	entries []*faultEntry
	// slots holds an entries position plus one, 0 for an empty slot. Its
	// length is 0 or a power of two at least twice len(entries).
	slots []int32
	// shift maps a page hash to a slot: 64 - log2(len(slots)).
	shift uint8
}

// len returns the number of pending entries.
func (t *faultTable) len() int { return len(t.entries) }

// home is the first slot probed for page p (Fibonacci hashing).
func (t *faultTable) home(p mem.PageID) int {
	return int(uint64(p) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the pending entry for page p, or nil.
func (t *faultTable) find(p mem.PageID) *faultEntry {
	if len(t.entries) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(p); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if e := t.entries[s-1]; e.page == p {
			return e
		}
	}
}

// add appends e, whose page must not be pending yet.
func (t *faultTable) add(e *faultEntry) {
	t.entries = append(t.entries, e)
	if 2*len(t.entries) > len(t.slots) {
		t.rehash()
		return
	}
	t.place(len(t.entries) - 1)
}

// rehash doubles the index (16 slots at first) and re-places every entry.
func (t *faultTable) rehash() {
	n := max(16, 2*len(t.slots))
	t.slots = make([]int32, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range t.entries {
		t.place(i)
	}
}

// place indexes entries[i] at the first free slot of its probe sequence.
func (t *faultTable) place(i int) {
	mask := len(t.slots) - 1
	j := t.home(t.entries[i].page)
	for t.slots[j] != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = int32(i + 1)
}

// reset empties the table, keeping its storage.
func (t *faultTable) reset() {
	if len(t.entries) == 0 {
		return
	}
	clear(t.entries)
	t.entries = t.entries[:0]
	clear(t.slots)
}
