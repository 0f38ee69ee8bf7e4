// Package btree implements an in-memory B+tree with byte-string keys and
// values of one type, used for the primary and secondary indexes of the
// TeNDaX database layer. The tree is generic over its value type, so the
// database's Tree[RID] keeps each record ID inline in its leaf: a Put
// allocates only the copy of its key, and a Get nothing.
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
	leaf     bool
	keys     [][]byte
	vals     []V        // leaf only, parallel to keys
	children []*node[V] // interior only, len(keys)+1
	next     *node[V]   // leaf chain for range scans
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &node[V]{leaf: true}}
}

// Len returns the number of stored keys.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored at key, or the zero value and false.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := search(n.keys, key)
	if !ok {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// Put stores value at key, replacing any existing value. It reports whether
// the key was newly inserted. The tree keeps its own copy of key.
func (t *Tree[V]) Put(key []byte, value V) bool {
	k := append([]byte(nil), key...)
	inserted, splitKey, right := t.root.put(k, value)
	if right != nil {
		t.root = &node[V]{
			keys:     [][]byte{splitKey},
			children: []*node[V]{t.root, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Delete removes key and reports whether it was present.
func (t *Tree[V]) Delete(key []byte) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := search(n.keys, key)
	if !ok {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

// Ascend visits every entry in key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key []byte, value V) bool) {
	t.AscendRange(nil, nil, fn)
}

// AscendRange visits entries with from <= key < to in order until fn
// returns false. A nil from starts at the smallest key; a nil to means no
// upper bound.
func (t *Tree[V]) AscendRange(from, to []byte, fn func(key []byte, value V) bool) {
	n := t.root
	for !n.leaf {
		if from == nil {
			n = n.children[0]
		} else {
			n = n.children[childIndex(n.keys, from)]
		}
	}
	for n != nil {
		for i, k := range n.keys {
			if from != nil && bytes.Compare(k, from) < 0 {
				continue
			}
			if to != nil && bytes.Compare(k, to) >= 0 {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, or nil if the tree is empty.
func (t *Tree[V]) Min() []byte {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0]
		}
		n = n.next
	}
	return nil
}

// Max returns the largest key, or nil if the tree is empty. It descends the
// rightmost path, stepping left only past leaves that deletions emptied
// (nodes are never rebalanced), so it costs one root-to-leaf walk unless
// the right edge of the tree was deleted.
func (t *Tree[V]) Max() []byte { return t.root.max() }

// max returns the largest key in the subtree rooted at n, or nil.
func (n *node[V]) max() []byte {
	if n.leaf {
		if len(n.keys) == 0 {
			return nil
		}
		return n.keys[len(n.keys)-1]
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if k := n.children[i].max(); k != nil {
			return k
		}
	}
	return nil
}

// put inserts into the subtree rooted at n. If n splits, it returns the
// separator key and the new right sibling.
func (n *node[V]) put(key []byte, value V) (inserted bool, splitKey []byte, right *node[V]) {
	if n.leaf {
		i, ok := search(n.keys, key)
		if ok {
			n.vals[i] = value
			return false, nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.vals = append(n.vals, zero)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) > order {
			sk, r := n.splitLeaf()
			return true, sk, r
		}
		return true, nil, nil
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

func (n *node[V]) splitLeaf() (splitKey []byte, right *node[V]) {
	mid := len(n.keys) / 2
	right = &node[V]{
		leaf: true,
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([]V(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right
	return right.keys[0], right
}

func (n *node[V]) splitInterior() (splitKey []byte, right *node[V]) {
	mid := len(n.keys) / 2
	splitKey = n.keys[mid]
	right = &node[V]{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return splitKey, right
}

// search finds the position of key in keys; ok reports an exact match.
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
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
