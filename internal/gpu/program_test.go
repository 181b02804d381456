package gpu

import (
	"reflect"
	"slices"
	"testing"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

// pagesFromBytes decodes a fuzz input into a page list rich in the
// shapes run coalescing must keep apart: each byte either extends the
// current run (< 0xa0), repeats the last page (< 0xc0), steps back one
// page (< 0xd0), or jumps to a page named by its low bits.
func pagesFromBytes(data []byte) []mem.PageID {
	var pages []mem.PageID
	p := mem.PageID(1000)
	for i, b := range data {
		switch {
		case i == 0:
		case b < 0xa0:
			p++
		case b < 0xc0:
		case b < 0xd0:
			p--
		default:
			p = mem.PageID(b&0x3f) * 7
		}
		pages = append(pages, p)
	}
	return pages
}

// FuzzPageRuns: coalescing any page list into runs and expanding the runs
// gives back the identical list, duplicates and order included, and the
// runs are maximal (no run continues where the previous one ends).
func FuzzPageRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0xb0, 0xb0, 0, 0xc5, 0, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pages := pagesFromBytes(data)
		// An op ahead of the list's must not disturb its span.
		var p Program
		p.Read(1, 7, 3)
		p.ReadPages(0, pages)
		op := p.Ops[1]
		runs := p.Runs[op.Lo:op.Hi]
		if got := p.AppendPages(nil, op); !slices.Equal(got, pages) || p.NumPages(op) != len(pages) {
			t.Fatalf("pages %v -> runs %v -> %v", pages, runs, got)
		}
		for i, r := range runs {
			if r.N == 0 {
				t.Fatalf("run %d of %v is empty", i, runs)
			}
			if i > 0 && runs[i-1].First+mem.PageID(runs[i-1].N) == r.First {
				t.Fatalf("runs %d and %d of %v should be one run", i-1, i, runs)
			}
		}
	})
}

// TestProgramTypesHoldNoPointers keeps program storage noscan: an Op or
// PageRun that gained a pointer, slice, map or string would make the
// garbage collector scan every warp program again.
func TestProgramTypesHoldNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			return true
		case reflect.Array:
			return hasPointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, v := range []any{Op{}, PageRun{}} {
		if ty := reflect.TypeOf(v); hasPointers(ty) {
			t.Errorf("%v holds a pointer", ty)
		}
	}
}

// oracleTable is the pending-fault table the µTLB used before faultTable:
// a map by page plus a slice keeping insertion order. It survives here as
// the oracle faultTable is checked against.
type oracleTable struct {
	m     map[mem.PageID]*faultEntry
	order []mem.PageID
}

func (o *oracleTable) find(p mem.PageID) *faultEntry { return o.m[p] }

func (o *oracleTable) add(e *faultEntry) {
	o.m[e.page] = e
	o.order = append(o.order, e.page)
}

func (o *oracleTable) reset() {
	clear(o.m)
	o.order = o.order[:0]
}

// TestPendingTableMatchesOracle drives a capped table (the replayable
// faults, cap 56) and an uncapped one (prefetch faults) through random
// join, insert, cap-stall and replay sequences, in lockstep with the
// map+order oracle: every lookup must return the same entry, every cap
// check see the same size, and every replay walk the same entries in the
// same order.
func TestPendingTableMatchesOracle(t *testing.T) {
	const maxFaults = 56
	rng := sim.NewRNG(42)
	for round := 0; round < 200; round++ {
		var tabs [2]faultTable
		oracles := [2]oracleTable{{m: map[mem.PageID]*faultEntry{}}, {m: map[mem.PageID]*faultEntry{}}}
		// Small page universes force joins; large ones force growth.
		universe := uint64(8) << rng.Uint64n(8)
		steps := 1 + int(rng.Uint64n(3000))
		for s := 0; s < steps; s++ {
			i := int(rng.Uint64n(2)) // 0 capped, 1 uncapped
			tab, o := &tabs[i], &oracles[i]
			if rng.Uint64n(100) == 0 {
				// Replay: both walk the same entries in insertion order.
				for k, e := range tab.entries {
					if k >= len(o.order) || e != o.m[o.order[k]] {
						t.Fatalf("round %d step %d: replay entry %d differs", round, s, k)
					}
				}
				if tab.len() != len(o.order) {
					t.Fatalf("round %d step %d: %d entries, oracle %d", round, s, tab.len(), len(o.order))
				}
				tab.reset()
				o.reset()
				continue
			}
			p := mem.PageID(rng.Uint64n(universe)) * mem.PageID(1+rng.Uint64n(3))
			e := tab.find(p)
			if e != o.find(p) {
				t.Fatalf("round %d step %d: find(%d) = %p, oracle %p", round, s, p, e, o.find(p))
			}
			if e != nil {
				continue // a join
			}
			if i == 0 && tab.len() >= maxFaults {
				continue // a cap stall
			}
			e = &faultEntry{page: p}
			tab.add(e)
			o.add(e)
			if tab.len() != len(o.order) {
				t.Fatalf("round %d step %d: %d entries, oracle %d", round, s, tab.len(), len(o.order))
			}
		}
	}
}
