// Package texttree implements the TeNDaX native text representation: text
// as a sequence of character instances, each a first-class database object
// with identity and metadata. An instance records the instance it was
// typed after, and document order is derived from those immutable anchors
// (anchorOrder), so typing a character writes its own record and no
// other. Deletion is logical (characters become invisible tombstones but
// keep their place), which is what makes versioning, undo across users,
// and copy-paste provenance cheap.
//
// Buffer, the character store, keeps each instance's record once and two
// trees over the document order, each with one job: order, a parent-pointer treap
// that is the only index by ID and answers the total rank of an ID, and
// the mirror (snapshot.go), a persistent B+-tree that answers every
// positional and visibility query for the live buffer and its snapshots
// alike.
package texttree

import (
	"tendax/internal/util"
)

// order is the buffer's ID index: an implicit treap over every hot
// character instance (visible and tombstoned) in document order, whose nodes
// hold the instances' current records. Parent pointers let it answer the
// one query the persistent mirror cannot: the total rank of an ID, in
// O(log n), which is how writers address the mirror.
type order struct {
	root  *onode
	nodes map[util.ID]*onode
}

type onode struct {
	prio   uint64
	left   *onode
	right  *onode
	parent *onode
	size   int   // total nodes in subtree
	ch     *Char // current record; replaced, never mutated, once published
}

// prioFor derives a deterministic pseudo-random priority from the ID so
// that rebuilding the same document yields the same tree shape.
func prioFor(id util.ID) uint64 {
	x := uint64(id) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

func (n *onode) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *onode) recompute() { n.size = 1 + n.left.sizeOf() + n.right.sizeOf() }

// get returns the current record of id, or nil if id is not hot.
func (o *order) get(id util.ID) *Char {
	if n := o.nodes[id]; n != nil {
		return n.ch
	}
	return nil
}

// totalRank returns the number of character instances (visible and
// tombstoned) strictly before id: its 0-based position in the document.
func (o *order) totalRank(id util.ID) (int, bool) {
	n := o.nodes[id]
	if n == nil {
		return 0, false
	}
	rank := n.left.sizeOf()
	for at := n; at.parent != nil; at = at.parent {
		if at.parent.right == at {
			rank += at.parent.left.sizeOf() + 1
		}
	}
	return rank, true
}

// at returns the record at total rank k, or nil past the last instance.
func (o *order) at(k int) *Char {
	for n := o.root; n != nil; {
		ls := n.left.sizeOf()
		switch {
		case k < ls:
			n = n.left
		case k == ls:
			return n.ch
		default:
			k -= ls + 1
			n = n.right
		}
	}
	return nil
}

// swap replaces the record held for ch.ID (copy-on-write update) and
// returns the instance's total rank.
func (o *order) swap(ch *Char) int {
	o.nodes[ch.ID].ch = ch
	r, _ := o.totalRank(ch.ID)
	return r
}

// add indexes ch without placing it in the tree; link places it.
func (o *order) add(ch *Char) *onode {
	n := &onode{prio: prioFor(ch.ID), size: 1, ch: ch}
	o.nodes[ch.ID] = n
	return n
}

// insertAfter places ch immediately after prev (NilID = front).
func (o *order) insertAfter(prev util.ID, ch *Char) { o.link(prev, o.add(ch)) }

// link places the indexed node n immediately after prev (NilID = front).
func (o *order) link(prev util.ID, n *onode) {
	if prev.IsNil() {
		// Leftmost position.
		if o.root == nil {
			o.root = n
			return
		}
		at := o.root
		for at.left != nil {
			at = at.left
		}
		at.left = n
		n.parent = at
	} else {
		p := o.nodes[prev]
		if p == nil {
			panic("texttree: insert after unknown predecessor")
		}
		if p.right == nil {
			p.right = n
			n.parent = p
		} else {
			at := p.right
			for at.left != nil {
				at = at.left
			}
			at.left = n
			n.parent = at
		}
	}
	o.fixCountsUp(n.parent)
	o.bubbleUp(n)
}

// remove deletes id from the order entirely (tombstone compaction: the
// instance moves to the archive and no longer occupies the hot index). The
// node is rotated down to a leaf to preserve the heap property, detached,
// and counts are fixed along the path. No-op for unknown ids.
func (o *order) remove(id util.ID) {
	n := o.nodes[id]
	if n == nil {
		return
	}
	// Rotate the smaller-priority child up until n is a leaf.
	for n.left != nil || n.right != nil {
		if n.right == nil || (n.left != nil && n.left.prio < n.right.prio) {
			o.rotateRight(n)
		} else {
			o.rotateLeft(n)
		}
	}
	p := n.parent
	if p == nil {
		o.root = nil
	} else if p.left == n {
		p.left = nil
	} else {
		p.right = nil
	}
	n.parent = nil
	delete(o.nodes, id)
	o.fixCountsUp(p)
}

// fixCountsUp recomputes sizes from n to the root.
func (o *order) fixCountsUp(n *onode) {
	for ; n != nil; n = n.parent {
		n.recompute()
	}
}

// bubbleUp restores the min-heap priority property by rotating n upward.
func (o *order) bubbleUp(n *onode) {
	for n.parent != nil && n.prio < n.parent.prio {
		if n.parent.left == n {
			o.rotateRight(n.parent)
		} else {
			o.rotateLeft(n.parent)
		}
	}
	if n.parent == nil {
		o.root = n
	}
}

func (o *order) rotateRight(p *onode) {
	l := p.left
	g := p.parent
	p.left = l.right
	if p.left != nil {
		p.left.parent = p
	}
	l.right = p
	p.parent = l
	l.parent = g
	if g != nil {
		if g.left == p {
			g.left = l
		} else {
			g.right = l
		}
	} else {
		o.root = l
	}
	p.recompute()
	l.recompute()
}

func (o *order) rotateLeft(p *onode) {
	r := p.right
	g := p.parent
	p.right = r.left
	if p.right != nil {
		p.right.parent = p
	}
	r.left = p
	p.parent = r
	r.parent = g
	if g != nil {
		if g.left == p {
			g.left = r
		} else {
			g.right = r
		}
	} else {
		o.root = r
	}
	p.recompute()
	r.recompute()
}
