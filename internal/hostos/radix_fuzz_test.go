package hostos

import (
	"encoding/binary"
	"testing"
)

// FuzzRadixTree drives the radix tree through an arbitrary op sequence and
// cross-checks it against a map oracle, asserting the structural
// invariants (size, node count, height/keyspace consistency) that the
// driver's DMA-mapping cost model and the new error paths rely on.
//
// The input encodes operations as 9-byte records: 1 op byte (insert /
// lookup / delete, mod 3) followed by an 8-byte little-endian key. An
// insert whose op byte is 3 mod 6 stores 0, as the driver does, so
// leaves mix slots with and without a value array. Keys are folded into
// a few density classes so inserts actually collide with deletes instead
// of scattering across the 64-bit space.
func FuzzRadixTree(f *testing.F) {
	rec := func(op byte, key uint64) []byte {
		b := make([]byte, 9)
		b[0] = op
		binary.LittleEndian.PutUint64(b[1:], key)
		return b
	}
	cat := func(rs ...[]byte) []byte {
		var out []byte
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	// Seed corpus: the shapes that exercise every structural transition.
	f.Add(cat(rec(0, 0)))                                        // single key 0
	f.Add(cat(rec(0, 0), rec(2, 0)))                             // insert then delete to empty
	f.Add(cat(rec(0, 5), rec(0, 5)))                             // overwrite same key
	f.Add(cat(rec(0, 1), rec(0, 1<<30)))                         // forces root growth
	f.Add(cat(rec(0, 1<<62), rec(1, 1<<62), rec(2, 1<<62)))      // near max height
	f.Add(cat(rec(0, 63), rec(0, 64), rec(2, 63), rec(1, 64)))   // node-boundary keys
	f.Add(cat(rec(0, 7), rec(0, 7+64), rec(2, 7), rec(2, 7+64))) // free spine bottom-up
	f.Add(cat(rec(1, 99), rec(2, 99)))                           // lookup/delete on empty tree
	// Zero values: a zero-filled leaf that later gets a non-zero value,
	// a delete on a leaf without a value array, and a non-zero value
	// overwritten by 0.
	f.Add(cat(rec(3, 10), rec(3, 11), rec(0, 12), rec(1, 10), rec(1, 12), rec(2, 11)))
	f.Add(cat(rec(3, 20), rec(3, 21), rec(2, 20), rec(1, 21), rec(2, 21)))
	f.Add(cat(rec(0, 5), rec(3, 5), rec(1, 5), rec(2, 5)))
	f.Add(cat(rec(3, 1), rec(3, 1<<30), rec(0, 2), rec(1, 1), rec(1, 1<<30)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tree RadixTree
		oracle := make(map[uint64]uint64)
		var nextVal uint64
		for len(data) >= 9 {
			op, zero := data[0]%3, (data[0]/3)%2 == 1
			key := binary.LittleEndian.Uint64(data[1:9])
			// Fold most keys into a dense window so ops collide; keep
			// every 4th key raw to still probe tree growth.
			if key%4 != 0 {
				key %= 4096
			}
			data = data[9:]
			switch op {
			case 0:
				var v uint64
				if !zero {
					nextVal++
					v = nextVal
				}
				newNodes := tree.Insert(key, v)
				if newNodes < 0 {
					t.Fatalf("Insert(%d) allocated %d nodes", key, newNodes)
				}
				oracle[key] = v
			case 1:
				v, ok := tree.Lookup(key)
				wantV, wantOK := oracle[key]
				if ok != wantOK || (ok && v != wantV) {
					t.Fatalf("Lookup(%d) = %d,%v; oracle %d,%v", key, v, ok, wantV, wantOK)
				}
			case 2:
				ok := tree.Delete(key)
				_, wantOK := oracle[key]
				if ok != wantOK {
					t.Fatalf("Delete(%d) = %v, oracle has key: %v", key, ok, wantOK)
				}
				delete(oracle, key)
			}
			// Structural invariants after every op.
			if tree.Size() != len(oracle) {
				t.Fatalf("Size = %d, oracle holds %d", tree.Size(), len(oracle))
			}
			if tree.Size() == 0 && tree.Nodes() != 0 {
				t.Fatalf("empty tree retains %d nodes", tree.Nodes())
			}
			if tree.Size() > 0 && tree.Nodes() < tree.Height() {
				t.Fatalf("nodes (%d) < height (%d): broken spine", tree.Nodes(), tree.Height())
			}
		}
		// Final sweep: every oracle key must still resolve.
		for k, want := range oracle {
			if v, ok := tree.Lookup(k); !ok || v != want {
				t.Fatalf("post-run Lookup(%d) = %d,%v, want %d,true", k, v, ok, want)
			}
		}
	})
}
