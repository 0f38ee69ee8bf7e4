// Package btree implements an in-memory B+tree with byte-string keys and
// values of one type, used for the primary and secondary indexes of the
// TeNDaX database layer.
//
// A leaf holds up to order entries. Its keys are packed in order into one
// byte arena, with a []uint32 of their end offsets, and its values sit inline
// in a parallel slice, so the database's Tree[RID] stores an entry as its key
// bytes, four bytes of offset and the RID. The offsets and values are
// allocated once at capacity order and never regrown. Interior nodes hold
// copies of their separator keys, never slices of a leaf's arena.
//
// A full leaf splits before the insert that would overflow it. When the new
// key goes past the leaf's last key, the split is at the right edge: the leaf
// stays full and the key starts a new right sibling. The database's row IDs
// ascend, so nearly every insert is such a one and leaves fill up. Any other
// insert into a full leaf splits it in the middle.
//
// Put allocates nothing of its own: its only allocations are the new node of
// a split and the growth of a leaf's arena, both amortised over the entries
// that fill it. Get and Delete allocate nothing. A key handed to an
// AscendRange callback is a slice of a leaf's arena and stays valid until the
// tree's next write; Min and Max return copies.
//
// Indexes are derived state in this system: they are rebuilt from heap scans
// when a database opens (see DESIGN.md), so the tree needs no persistence of
// its own. Deletion removes entries but does not rebalance underfull nodes;
// lookups and scans remain correct, and the rebuild-on-open policy bounds
// long-term sparsity.
package btree

import "bytes"

const order = 64 // max keys per node

// Tree is a B+tree mapping []byte keys to values of type V. It is not safe
// for concurrent use; callers synchronize (the database layer serializes
// index access under its latches).
type Tree[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	leaf bool

	// Leaf: entry i's key is arena[ends[i-1]:ends[i]] (from 0 for i == 0)
	// and its value vals[i]. ends and vals have capacity order.
	arena []byte
	ends  []uint32
	vals  []V
	next  *node[V] // leaf chain for range scans

	// Interior: children[i] covers the keys below keys[i], children[i+1]
	// those from keys[i] up.
	keys     [][]byte
	children []*node[V]
}

func newLeaf[V any](arenaCap int) *node[V] {
	return &node[V]{
		leaf:  true,
		arena: make([]byte, 0, arenaCap),
		ends:  make([]uint32, 0, order),
		vals:  make([]V, 0, order),
	}
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: newLeaf[V](0)}
}

// Len returns the number of stored keys.
func (t *Tree[V]) Len() int { return t.size }

// leafFor returns the leaf whose range covers key.
func (t *Tree[V]) leafFor(key []byte) *node[V] {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	return n
}

// Get returns the value stored at key, or the zero value and false.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.leafFor(key)
	i, ok := n.search(key)
	if !ok {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// Put stores value at key, replacing any existing value. It reports whether
// the key was newly inserted. The tree keeps its own copy of key.
func (t *Tree[V]) Put(key []byte, value V) bool {
	inserted, splitKey, right := t.root.put(key, value)
	if right != nil {
		root := newInterior[V]()
		root.keys = append(root.keys, splitKey)
		root.children = append(root.children, t.root, right)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Delete removes key and reports whether it was present.
func (t *Tree[V]) Delete(key []byte) bool {
	n := t.leafFor(key)
	i, ok := n.search(key)
	if !ok {
		return false
	}
	n.deleteAt(i)
	t.size--
	return true
}

// Ascend visits every entry in key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key []byte, value V) bool) {
	t.AscendRange(nil, nil, fn)
}

// AscendRange visits entries with from <= key < to in order until fn
// returns false. A nil from starts at the smallest key; a nil to means no
// upper bound. The key passed to fn stays valid until the tree's next write.
func (t *Tree[V]) AscendRange(from, to []byte, fn func(key []byte, value V) bool) {
	n := t.root
	for !n.leaf {
		if from == nil {
			n = n.children[0]
		} else {
			n = n.children[childIndex(n.keys, from)]
		}
	}
	i := 0
	if from != nil {
		i, _ = n.search(from)
	}
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.ends); i++ {
			k := n.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// Min returns a copy of the smallest key, or nil if the tree is empty.
func (t *Tree[V]) Min() []byte {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		if len(n.ends) > 0 {
			return append([]byte{}, n.key(0)...)
		}
	}
	return nil
}

// Max returns a copy of the largest key, or nil if the tree is empty. It
// descends the rightmost path, stepping left only past leaves that
// deletions emptied (nodes are never rebalanced), so it costs one
// root-to-leaf walk unless the right edge of the tree was deleted.
func (t *Tree[V]) Max() []byte {
	if k := t.root.max(); k != nil {
		return append([]byte{}, k...)
	}
	return nil
}

// max returns the largest key in the subtree rooted at n, or nil.
func (n *node[V]) max() []byte {
	if n.leaf {
		if len(n.ends) == 0 {
			return nil
		}
		return n.key(len(n.ends) - 1)
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if k := n.children[i].max(); k != nil {
			return k
		}
	}
	return nil
}

// put inserts into the subtree rooted at n. If n splits, it returns the
// separator key (the tree's own copy) and the new right sibling.
func (n *node[V]) put(key []byte, value V) (inserted bool, splitKey []byte, right *node[V]) {
	if n.leaf {
		i, ok := n.search(key)
		if ok {
			n.vals[i] = value
			return false, nil, nil
		}
		if len(n.ends) < order {
			n.insertAt(i, key, value)
			return true, nil, nil
		}
		if i == order {
			// Past the last key: the full leaf stays as it is and the key
			// starts its right sibling, sized for as many bytes as it holds.
			right = newLeaf[V](len(n.arena))
			right.next, n.next = n.next, right
			right.insertAt(0, key, value)
			return true, append([]byte{}, key...), right
		}
		splitKey, right = n.splitLeaf()
		if i <= order/2 {
			n.insertAt(i, key, value)
		} else {
			right.insertAt(i-order/2, key, value)
		}
		return true, splitKey, right
	}
	ci := childIndex(n.keys, key)
	ins, sk, r := n.children[ci].put(key, value)
	if r != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sk
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = r
		if len(n.keys) > order {
			sk2, r2 := n.splitInterior()
			return ins, sk2, r2
		}
	}
	return ins, nil, nil
}

// key returns entry i's key, capped so an append to it cannot write into
// the arena.
func (n *node[V]) key(i int) []byte {
	end := n.ends[i]
	return n.arena[n.start(i):end:end]
}

// start returns the arena offset where entry i's key begins (for i ==
// len(ends), where an entry appended would begin).
func (n *node[V]) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return n.ends[i-1]
}

// insertAt inserts an entry at position i of a leaf that is not full.
func (n *node[V]) insertAt(i int, key []byte, value V) {
	s, k := n.start(i), uint32(len(key))
	tail := len(n.arena)
	n.arena = append(n.arena, key...)
	copy(n.arena[s+k:], n.arena[s:tail])
	copy(n.arena[s:], key)
	n.ends = n.ends[:len(n.ends)+1]
	for j := len(n.ends) - 1; j > i; j-- {
		n.ends[j] = n.ends[j-1] + k
	}
	n.ends[i] = s + k
	n.vals = n.vals[:len(n.vals)+1]
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = value
}

// deleteAt removes entry i of a leaf.
func (n *node[V]) deleteAt(i int) {
	s, e := n.start(i), n.ends[i]
	n.arena = append(n.arena[:s], n.arena[e:]...)
	last := len(n.ends) - 1
	for j := i; j < last; j++ {
		n.ends[j] = n.ends[j+1] - (e - s)
	}
	n.ends = n.ends[:last]
	copy(n.vals[i:], n.vals[i+1:])
	var zero V
	n.vals[last] = zero
	n.vals = n.vals[:last]
}

// splitLeaf moves the upper half of a full leaf into a new right sibling
// and returns a copy of that sibling's first key as the separator.
func (n *node[V]) splitLeaf() (splitKey []byte, right *node[V]) {
	const mid = order / 2
	base := n.ends[mid-1]
	right = newLeaf[V](len(n.arena))
	right.arena = append(right.arena, n.arena[base:]...)
	for _, e := range n.ends[mid:] {
		right.ends = append(right.ends, e-base)
	}
	right.vals = append(right.vals, n.vals[mid:]...)
	clear(n.vals[mid:])
	n.arena = n.arena[:base]
	n.ends = n.ends[:mid]
	n.vals = n.vals[:mid]
	right.next, n.next = n.next, right
	return append([]byte{}, right.key(0)...), right
}

// newInterior returns an empty interior node with room for the one key and
// child an insert adds before it splits.
func newInterior[V any]() *node[V] {
	return &node[V]{
		keys:     make([][]byte, 0, order+1),
		children: make([]*node[V], 0, order+2),
	}
}

func (n *node[V]) splitInterior() (splitKey []byte, right *node[V]) {
	mid := len(n.keys) / 2
	splitKey = n.keys[mid]
	right = newInterior[V]()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	clear(n.keys[mid:])
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return splitKey, right
}

// search finds the position of key in leaf n; ok reports an exact match.
func (n *node[V]) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch bytes.Compare(n.key(mid), key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		case 1:
			hi = mid
		}
	}
	return lo, false
}

// childIndex returns which child subtree of an interior node covers key.
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
