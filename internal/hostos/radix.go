// Package hostos models the host operating system components that sit on
// the UVM fault path: the virtual-memory subsystem whose
// unmap_mapping_range() the driver invokes when the GPU touches a VABlock
// partially resident on the CPU, page population (zero-filling), and the
// radix tree in which the driver records which pages hold DMA mappings.
//
// The paper (§4.4, §5.2) identifies these host components as significant,
// cross-implementation costs: they will be paid by any HMM backend, not
// just NVIDIA's driver. We therefore model them as a separate substrate
// with their own cost accounting.
package hostos

// Radix tree parameters mirroring the mainline Linux implementation
// (RADIX_TREE_MAP_SHIFT = 6 on 64-bit kernels).
const (
	radixShift  = 6
	radixFanout = 1 << radixShift // 64 slots per node
	radixMask   = radixFanout - 1
)

// radixNode is one node of the tree. Interior nodes keep their children
// in children and leaves, the bottom level, keep their values in values;
// each is an array of its own, so a node is small. A leaf allocates
// values only when it first stores a non-zero value: a slot whose bit is
// set in used but that has no array holds 0. The driver stores presence
// only, so its leaves never carry the array, and filling a leaf that
// already exists allocates nothing.
type radixNode struct {
	parent *radixNode
	// children is nil in a leaf.
	children *[radixFanout]*radixNode
	// used has bit i set while slot i holds a child or a value.
	used   uint64
	offset int // slot index in parent (for delete path)
	// values is nil in an interior node and in a leaf that has stored
	// only zeros.
	values *[radixFanout]uint64
}

// RadixTree is a Linux-style radix tree keyed by uint64 (page indices in
// the driver's usage) storing uint64 values. The driver stores 0 under
// every DMA-mapped page and charges time per node allocated, so Insert
// reports allocations.
//
// The zero value is an empty tree.
type RadixTree struct {
	root   *radixNode
	height int // number of levels; key space covered = 64^height
	size   int
	nodes  int // live node count, for diagnostics and cost modeling
}

// Size returns the number of stored keys.
func (t *RadixTree) Size() int { return t.size }

// Nodes returns the number of live interior/leaf nodes.
func (t *RadixTree) Nodes() int { return t.nodes }

// Height returns the current tree height in levels.
func (t *RadixTree) Height() int { return t.height }

// maxKey returns the largest key representable at the current height.
func (t *RadixTree) maxKey() uint64 {
	if t.height == 0 {
		return 0
	}
	if t.height*radixShift >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.height*radixShift)) - 1
}

// slot returns key's slot index in a node at the given level (0 for
// leaves).
func slot(key uint64, level int) int {
	return int(key>>(uint(level)*radixShift)) & radixMask
}

// leaf returns the leaf node holding key, or nil if there is none.
func (t *RadixTree) leaf(key uint64) *radixNode {
	if t.root == nil || key > t.maxKey() {
		return nil
	}
	n := t.root
	for level := t.height - 1; level > 0 && n != nil; level-- {
		n = n.children[slot(key, level)]
	}
	return n
}

// Insert stores value under key, replacing any previous value. It returns
// the number of radix nodes newly allocated, which the UVM driver model
// converts into DMA-mapping setup time (the Figure 14 "GPU state
// initialization" cost is dominated by this radix-tree work).
func (t *RadixTree) Insert(key, value uint64) (newNodes int) {
	// Grow the tree until the key fits.
	if t.root == nil {
		t.root = &radixNode{}
		t.nodes++
		newNodes++
		t.height = 1
	}
	for key > t.maxKey() {
		newRoot := &radixNode{children: new([radixFanout]*radixNode), used: 1}
		t.nodes++
		newNodes++
		newRoot.children[0] = t.root
		t.root.parent = newRoot
		t.root.offset = 0
		t.root = newRoot
		t.height++
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		idx := slot(key, level)
		child := n.children[idx]
		if child == nil {
			child = &radixNode{parent: n, offset: idx}
			if level > 1 {
				child.children = new([radixFanout]*radixNode)
			}
			t.nodes++
			newNodes++
			n.children[idx] = child
			n.used |= 1 << idx
		}
		n = child
	}
	idx := slot(key, 0)
	if n.used&(1<<idx) == 0 {
		n.used |= 1 << idx
		t.size++
	}
	if n.values != nil {
		n.values[idx] = value
	} else if value != 0 {
		n.values = new([radixFanout]uint64)
		n.values[idx] = value
	}
	return newNodes
}

// Lookup returns the value stored under key, if any.
func (t *RadixTree) Lookup(key uint64) (uint64, bool) {
	n := t.leaf(key)
	if n == nil {
		return 0, false
	}
	idx := slot(key, 0)
	if n.used&(1<<idx) == 0 {
		return 0, false
	}
	if n.values == nil {
		return 0, true
	}
	return n.values[idx], true
}

// Delete removes key and returns whether it was present. Empty nodes are
// freed bottom-up, as the kernel does.
func (t *RadixTree) Delete(key uint64) bool {
	n := t.leaf(key)
	idx := slot(key, 0)
	if n == nil || n.used&(1<<idx) == 0 {
		return false
	}
	n.used &^= 1 << idx
	if n.values != nil {
		n.values[idx] = 0
	}
	t.size--
	// Free empty nodes up the spine.
	for n != nil && n.used == 0 && n != t.root {
		parent := n.parent
		parent.children[n.offset] = nil
		parent.used &^= 1 << n.offset
		t.nodes--
		n = parent
	}
	if t.size == 0 && t.root != nil {
		t.root = nil
		t.nodes = 0
		t.height = 0
	}
	return true
}
