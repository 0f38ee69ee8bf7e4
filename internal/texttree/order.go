// Package texttree implements the TeNDaX native text representation: text
// as a sequence of character instances, each a first-class database object
// with identity and metadata. An instance records the instance it was
// typed after, and document order is derived from those immutable anchors
// (runOrder), so typing a character writes its own record and no
// other. Deletion is logical (characters become invisible tombstones but
// keep their place), which is what makes versioning, undo across users,
// and copy-paste provenance cheap.
//
// Identity does not mean one heap object per instance. Buffer, the
// character store, keeps one record per run (run.go): instances inserted
// together, by one author at one instant, with IDs in one arithmetic
// progression, each typed after the one before. Two structures sit over
// the document order, each with one job: order, a treap of ID extents
// that is the only index by ID and answers the total rank of an ID, and
// the mirror (snapshot.go), a persistent B+-tree whose leaves hold
// segments — a record, a first offset and a count — and which answers
// every positional and visibility query for the live buffer and its
// snapshots alike. Neither holds anything per character: a typed run is
// one extent and one segment until an edit lands inside it.
package texttree

import (
	"fmt"

	"tendax/internal/util"
)

// order is the buffer's ID index. Its nodes are extents: stretches of hot
// instances (visible and tombstoned) that are adjacent in document order
// and whose IDs ascend by one step. The extents sit in two treaps at once:
// an implicit treap in document order, whose parent pointers answer the one
// query the persistent mirror cannot — the total rank of an ID, in
// O(log n), which is how writers address the mirror — and a treap keyed by
// each extent's first ID, where a floor lookup finds the extent that holds
// an ID. For that lookup to be exact, the ID ranges [start, last] of two
// extents never overlap; inserts split an extent whose range an incoming ID
// falls into (add). Nothing in order is per character: a typed run is one
// extent until an insert lands inside it.
type order struct {
	root *extent // the document-order treap
	byID *extent // the treap by start
	// free holds extents not yet handed out. No extent is removed but by
	// a compaction, which rebuilds the whole order, so extents are
	// allocated in blocks that double up to maxSlab: a split or a new key
	// costs a fraction of an allocation, and a block is dropped with the
	// order it serves.
	free []extent
	slab int // the size of the last block
}

const maxSlab = 64

type extent struct {
	start, step util.ID
	n           int // instances
	prio        uint64
	// The document-order treap: size is the number of instances under the
	// node.
	left, right, parent *extent
	size                int
	// The treap by start.
	lo, hi *extent
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

func (e *extent) sizeOf() int {
	if e == nil {
		return 0
	}
	return e.size
}

func (e *extent) recompute() { e.size = e.n + e.left.sizeOf() + e.right.sizeOf() }

func (e *extent) id(i int) util.ID { return e.start + util.ID(i)*e.step }

func (e *extent) last() util.ID { return e.id(e.n - 1) }

// floor returns the extent with the greatest start at or below id.
func (o *order) floor(id util.ID) *extent {
	var best *extent
	for t := o.byID; t != nil; {
		if t.start <= id {
			best, t = t, t.hi
		} else {
			t = t.lo
		}
	}
	return best
}

// next returns the extent with the least start above id.
func (o *order) next(id util.ID) *extent {
	var best *extent
	for t := o.byID; t != nil; {
		if t.start > id {
			best, t = t, t.lo
		} else {
			t = t.hi
		}
	}
	return best
}

// find returns the extent holding id and id's offset in it; nil if id is
// not hot.
func (o *order) find(id util.ID) (*extent, int) {
	e := o.floor(id)
	if e == nil || id > e.last() || (id-e.start)%e.step != 0 {
		return nil, 0
	}
	return e, int((id - e.start) / e.step)
}

// has reports whether id is hot.
func (o *order) has(id util.ID) bool {
	e, _ := o.find(id)
	return e != nil
}

// rankOf returns the number of instances before e in document order.
func (o *order) rankOf(e *extent) int {
	rank := e.left.sizeOf()
	for at := e; at.parent != nil; at = at.parent {
		if at.parent.right == at {
			rank += at.parent.left.sizeOf() + at.parent.n
		}
	}
	return rank
}

// totalRank returns the number of character instances (visible and
// tombstoned) strictly before id: its 0-based position in the document.
func (o *order) totalRank(id util.ID) (int, bool) {
	e, i := o.find(id)
	if e == nil {
		return 0, false
	}
	return o.rankOf(e) + i, true
}

// overlaps reports whether any hot instance has an ID of the ascending
// progression first, first+step, ..., last (it is exact, not a range test).
func (o *order) overlaps(first, step, last util.ID) bool {
	e := o.floor(last)
	if e == nil || e.last() < first {
		return false // the ranges of every extent lie below first
	}
	for id := first; ; id += step {
		if o.has(id) {
			return true
		}
		if id == last {
			return false
		}
	}
}

// tail returns the extent whose last instance is prev, splitting prev's
// extent after it if prev is inside it; nil for NilID (the front). prev
// must be hot.
func (o *order) tail(prev util.ID) *extent {
	if prev.IsNil() {
		return nil
	}
	e, i := o.find(prev)
	if e == nil {
		panic(fmt.Sprintf("texttree: order has no extent for %v", prev))
	}
	if i < e.n-1 {
		o.split(e, i+1)
	}
	return e
}

// add places the n instances first, first+step, ... right after the
// extent t (nil: at the front of the document) and returns the extent that
// ends with the last of them. An instance continuing t's progression
// extends t; otherwise each stretch of the progression whose range meets
// no other extent's becomes one new extent, and an extent whose range an
// incoming ID falls into is split around it (its two parts stay adjacent in
// document order). It stops with an error at the first incoming ID that is
// already hot, keeping what it placed before it: Load then drops the
// buffer, and InsertRun checks its run first (overlaps).
func (o *order) add(t *extent, first, step util.ID, n int) (*extent, error) {
	for n > 0 {
		c := o.floor(first)
		if c != nil && first <= c.last() {
			if (first-c.start)%c.step == 0 {
				return t, fmt.Errorf("texttree: duplicate char %v", first)
			}
			// first falls between two instances of c: split c there.
			right := o.split(c, int((first-c.start)/c.step)+1)
			if c == t {
				t = right
			}
		}
		k := n
		if nx := o.next(first); nx != nil && n > 1 {
			if lim := (nx.start-first-1)/step + 1; lim < util.ID(k) {
				k = int(lim)
			}
		}
		if t != nil && o.floor(first) == t && first > t.last() &&
			(t.n == 1 || first-t.last() == t.step) && (k == 1 || step == first-t.last()) {
			if t.n == 1 {
				t.step = first - t.start
			}
			t.n += k
			o.fixCountsUp(t)
		} else {
			e := o.alloc(first, step, k)
			o.link(t, e)
			o.byID = idInsert(o.byID, e)
			t = e
		}
		first += util.ID(k) * step
		n -= k
	}
	return t, nil
}

// split cuts e before its instance i, 0 < i < e.n: e keeps the instances
// before it, and the new extent returned, linked right after e, holds the
// rest.
func (o *order) split(e *extent, i int) *extent {
	r := o.alloc(e.id(i), e.step, e.n-i)
	e.n = i
	o.fixCountsUp(e)
	o.link(e, r)
	o.byID = idInsert(o.byID, r)
	return r
}

// alloc returns a new extent of n instances from start by step.
func (o *order) alloc(start, step util.ID, n int) *extent {
	if len(o.free) == 0 {
		o.slab = min(maxSlab, max(4, 2*o.slab))
		o.free = make([]extent, o.slab)
	}
	e := &o.free[0]
	o.free = o.free[1:]
	e.start, e.step, e.n, e.prio = start, step, n, prioFor(start)
	return e
}

// link places e, not yet in the document-order treap, right after t (nil:
// at the front).
func (o *order) link(t, e *extent) {
	e.size = e.n
	switch {
	case o.root == nil:
		o.root = e
		return
	case t == nil:
		at := o.root
		for at.left != nil {
			at = at.left
		}
		at.left, e.parent = e, at
	case t.right == nil:
		t.right, e.parent = e, t
	default:
		at := t.right
		for at.left != nil {
			at = at.left
		}
		at.left, e.parent = e, at
	}
	o.fixCountsUp(e.parent)
	for e.parent != nil && e.prio < e.parent.prio {
		if e.parent.left == e {
			o.rotateRight(e.parent)
		} else {
			o.rotateLeft(e.parent)
		}
	}
	if e.parent == nil {
		o.root = e
	}
}

// idInsert returns the treap by start under t with e inserted.
func idInsert(t, e *extent) *extent {
	if t == nil {
		return e
	}
	if e.start < t.start {
		t.lo = idInsert(t.lo, e)
		if t.lo.prio < t.prio {
			l := t.lo
			t.lo, l.hi = l.hi, t
			return l
		}
	} else {
		t.hi = idInsert(t.hi, e)
		if t.hi.prio < t.prio {
			h := t.hi
			t.hi, h.lo = h.lo, t
			return h
		}
	}
	return t
}

// fixCountsUp recomputes sizes from e to the root.
func (o *order) fixCountsUp(e *extent) {
	for ; e != nil; e = e.parent {
		e.recompute()
	}
}

func (o *order) rotateRight(p *extent) {
	l := p.left
	g := p.parent
	p.left = l.right
	if p.left != nil {
		p.left.parent = p
	}
	l.right = p
	p.parent = l
	l.parent = g
	o.replaceChild(g, p, l)
	p.recompute()
	l.recompute()
}

func (o *order) rotateLeft(p *extent) {
	r := p.right
	g := p.parent
	p.right = r.left
	if p.right != nil {
		p.right.parent = p
	}
	r.left = p
	p.parent = r
	r.parent = g
	o.replaceChild(g, p, r)
	p.recompute()
	r.recompute()
}

// replaceChild makes c the child of g that p was (the root if g is nil).
func (o *order) replaceChild(g, p, c *extent) {
	switch {
	case g == nil:
		o.root = c
	case g.left == p:
		g.left = c
	default:
		g.right = c
	}
}

// walk visits the extents in document order until fn returns false.
func (o *order) walk(fn func(e *extent) bool) {
	var stack []*extent
	for e := o.root; e != nil || len(stack) > 0; {
		for ; e != nil; e = e.left {
			stack = append(stack, e)
		}
		e = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(e) {
			return
		}
		e = e.right
	}
}

// check verifies both treaps: sizes, parent pointers and priorities in
// document order; every extent once in the treap by start, in ascending
// start order, with ranges that do not overlap.
func (o *order) check() error {
	var checkDoc func(e, parent *extent) (int, error)
	checkDoc = func(e, parent *extent) (int, error) {
		if e == nil {
			return 0, nil
		}
		switch {
		case e.parent != parent:
			return 0, fmt.Errorf("texttree: extent %v has a torn parent pointer", e.start)
		case parent != nil && e.prio < parent.prio:
			return 0, fmt.Errorf("texttree: extent %v breaks the heap order", e.start)
		case e.n < 1 || e.step < 1:
			return 0, fmt.Errorf("texttree: extent %v holds %d instances by step %v", e.start, e.n, e.step)
		}
		l, err := checkDoc(e.left, e)
		if err != nil {
			return 0, err
		}
		r, err := checkDoc(e.right, e)
		if err != nil {
			return 0, err
		}
		if e.size != l+r+e.n {
			return 0, fmt.Errorf("texttree: extent %v counts %d, holds %d", e.start, e.size, l+r+e.n)
		}
		return e.size, nil
	}
	if _, err := checkDoc(o.root, nil); err != nil {
		return err
	}
	docs := 0
	o.walk(func(*extent) bool { docs++; return true })
	var prev *extent
	ids := 0
	var err error
	var inorder func(t *extent)
	inorder = func(t *extent) {
		if t == nil || err != nil {
			return
		}
		if (t.lo != nil && t.lo.prio < t.prio) || (t.hi != nil && t.hi.prio < t.prio) {
			err = fmt.Errorf("texttree: extent %v breaks the heap order by start", t.start)
			return
		}
		inorder(t.lo)
		if err == nil && prev != nil && prev.last() >= t.start {
			err = fmt.Errorf("texttree: extents at %v and %v overlap", prev.start, t.start)
		}
		prev = t
		ids++
		inorder(t.hi)
	}
	inorder(o.byID)
	if err != nil {
		return err
	}
	if ids != docs {
		return fmt.Errorf("texttree: %d extents in document order, %d by start", docs, ids)
	}
	return nil
}
