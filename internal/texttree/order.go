// Package texttree implements the TeNDaX native text representation: text
// as a chain of character instances, each a first-class database object
// with identity and metadata. Deletion is logical (characters become
// invisible tombstones but keep their place in the chain), which is what
// makes versioning, undo across users, and copy-paste provenance cheap.
//
// The package provides two layers: Order, an order-statistic treap over all
// character instances (visible and tombstoned) supporting O(log n) position
// queries, and Buffer, the character store with neighbour links, visibility
// and time-travel reconstruction.
package texttree

import (
	"tendax/internal/util"
)

// Order maintains the total order of character instances, visible and
// tombstoned, with O(log n) insert-after, position lookup and rank queries.
// It is an implicit-key treap augmented with subtree visible-counts.
type Order struct {
	root  *onode
	nodes map[util.ID]*onode
}

type onode struct {
	id      util.ID
	prio    uint64
	left    *onode
	right   *onode
	parent  *onode
	size    int // total nodes in subtree
	vcount  int // visible nodes in subtree
	visible bool
}

// NewOrder returns an empty order.
func NewOrder() *Order {
	return &Order{nodes: make(map[util.ID]*onode)}
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

// Len returns the total number of character instances (incl. tombstones).
func (o *Order) Len() int { return o.root.sizeOf() }

// VisibleLen returns the number of visible characters.
func (o *Order) VisibleLen() int { return o.root.vcountOf() }

// Contains reports whether id is in the order.
func (o *Order) Contains(id util.ID) bool {
	_, ok := o.nodes[id]
	return ok
}

// Visible reports whether id is present and visible.
func (o *Order) Visible(id util.ID) bool {
	n, ok := o.nodes[id]
	return ok && n.visible
}

func (n *onode) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *onode) vcountOf() int {
	if n == nil {
		return 0
	}
	return n.vcount
}

func (n *onode) recompute() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
	n.vcount = n.left.vcountOf() + n.right.vcountOf()
	if n.visible {
		n.vcount++
	}
}

// InsertAfter places id immediately after prev in the total order
// (prev == NilID inserts at the front). visible sets the initial
// visibility. It is a no-op if id is already present.
func (o *Order) InsertAfter(prev, id util.ID, visible bool) {
	if _, ok := o.nodes[id]; ok {
		return
	}
	n := &onode{id: id, prio: prioFor(id), visible: visible}
	n.recompute()
	o.nodes[id] = n

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
			panic("texttree: InsertAfter of unknown predecessor")
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

// Remove deletes id from the order entirely (tombstone compaction: the
// instance moves to the archive and no longer occupies the hot index). The
// node is rotated down to a leaf to preserve the heap property, detached,
// and counts are fixed along the path. No-op for unknown ids.
func (o *Order) Remove(id util.ID) {
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

// SetVisible flips the visibility of id, updating counts along the path.
func (o *Order) SetVisible(id util.ID, visible bool) {
	n := o.nodes[id]
	if n == nil || n.visible == visible {
		return
	}
	n.visible = visible
	for at := n; at != nil; at = at.parent {
		at.recompute()
	}
}

// VisibleAt returns the ID of the k-th visible character (0-based).
func (o *Order) VisibleAt(k int) (util.ID, bool) {
	n := o.root
	if k < 0 || k >= n.vcountOf() {
		return util.NilID, false
	}
	for n != nil {
		lv := n.left.vcountOf()
		switch {
		case k < lv:
			n = n.left
		case k == lv && n.visible:
			return n.id, true
		default:
			k -= lv
			if n.visible {
				k--
			}
			n = n.right
		}
	}
	return util.NilID, false
}

// VisibleRank returns the number of visible characters strictly before id.
// For a visible id this is its 0-based position; for a tombstone it is the
// position an insertion after it would land at.
func (o *Order) VisibleRank(id util.ID) (int, bool) {
	n := o.nodes[id]
	if n == nil {
		return 0, false
	}
	rank := n.left.vcountOf()
	for at := n; at.parent != nil; at = at.parent {
		if at.parent.right == at {
			rank += at.parent.left.vcountOf()
			if at.parent.visible {
				rank++
			}
		}
	}
	return rank, true
}

// TotalRank returns the number of character instances (visible and
// tombstoned) strictly before id: its 0-based position in the total order.
// The writer-side snapshot mirror uses it to address the persistent treap
// by rank, which is the one query the parent-pointer treap can answer in
// O(log n) and a path-copying treap cannot.
func (o *Order) TotalRank(id util.ID) (int, bool) {
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

// Walk visits every character instance in order (tombstones included)
// until fn returns false.
func (o *Order) Walk(fn func(id util.ID, visible bool) bool) {
	var rec func(n *onode) bool
	rec = func(n *onode) bool {
		if n == nil {
			return true
		}
		if !rec(n.left) {
			return false
		}
		if !fn(n.id, n.visible) {
			return false
		}
		return rec(n.right)
	}
	rec(o.root)
}

// WalkVisible visits visible characters in order until fn returns false.
func (o *Order) WalkVisible(fn func(id util.ID) bool) {
	o.Walk(func(id util.ID, visible bool) bool {
		if !visible {
			return true
		}
		return fn(id)
	})
}

// WalkVisibleFrom visits up to n visible characters in order, starting
// with the one at position pos; a range reaching before the first or past
// the last character is clipped. Like VisibleAt it descends by subtree
// visible counts, so the cost is O(log n + visited) wherever pos lies.
func (o *Order) WalkVisibleFrom(pos, n int, fn func(id util.ID)) {
	if pos < 0 {
		n += pos
		pos = 0
	}
	if n <= 0 {
		return
	}
	o.root.walkVisibleFrom(pos, func(id util.ID) bool {
		fn(id)
		n--
		return n > 0
	})
}

func (n *onode) walkVisibleFrom(skip int, fn func(id util.ID) bool) bool {
	if n == nil || skip >= n.vcount {
		return true
	}
	if lv := n.left.vcountOf(); skip < lv {
		if !n.left.walkVisibleFrom(skip, fn) {
			return false
		}
		skip = 0
	} else {
		skip -= lv
	}
	if n.visible {
		if skip > 0 {
			skip--
		} else if !fn(n.id) {
			return false
		}
	}
	return n.right.walkVisibleFrom(skip, fn)
}

// fixCountsUp recomputes sizes from n to the root.
func (o *Order) fixCountsUp(n *onode) {
	for ; n != nil; n = n.parent {
		n.recompute()
	}
}

// bubbleUp restores the min-heap priority property by rotating n upward.
func (o *Order) bubbleUp(n *onode) {
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

func (o *Order) rotateRight(p *onode) {
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

func (o *Order) rotateLeft(p *onode) {
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
