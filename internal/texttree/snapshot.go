package texttree

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"tendax/internal/util"
)

// This file implements the MVCC side of the text representation: a
// persistent B+-tree over the document, ordered by position, so a Buffer
// can hand out an immutable Snapshot of the whole document in O(1) without
// blocking writers. Leaves hold segments in document order — each names a
// record, a first offset in it and a count: a maximal stretch of the
// record's instances that sit side by side in the document — with one
// visibility bit each, as a record has one deletion state; inner nodes hold
// their children with each child's total and visible counts. A typed or
// pasted run is one segment however long it is, so the tree's size follows
// the number of edits that cut the text, not its length. Writers address
// the tree by total rank, which the order's extent treap answers, and
// mirror every change into it along one root-to-leaf path, splitting the
// segment at the rank they change: an insert cuts one segment in two
// around the new ones, a delete, undelete or re-anchor cuts one into at
// most three. Readers hold the old root and never observe the change.
// Copying is per generation, not per write: a node carries the buffer
// generation that made it, taking a snapshot ends the generation, and a
// write copies only nodes of earlier generations — a node the current
// generation already copied is updated in place, as no snapshot can reach
// it. Nothing removes an instance except compaction, which rebuilds the
// tree, so nodes never underflow and never merge. Every positional and
// visibility query, for the live buffer and for snapshots, is answered
// here, through the per-instance slot view the segments expand to. Old
// snapshots are reclaimed by the garbage collector once the last reader
// drops them — no epoch bookkeeping is needed.

const (
	// leafCap is the number of segments a leaf holds, one bit each in its
	// visibility bitmap: as many as fit the 896 B size class.
	leafCap = 54
	// fanout is the number of children an inner node holds. Two levels, a
	// root over full leaves, hold leafCap*fanout segments, so a key typed
	// after a snapshot into a document of a few hundred segments copies a
	// leaf and the root; three levels hold fanout times that.
	fanout = 32
)

// mnode is a mirror node: a *leaf or an *inner. A node of an ended
// generation may be reachable from a snapshot and is never mutated;
// updates copy its root-to-leaf path into the current generation and
// share everything else.
type mnode interface {
	// counts returns the number of instances under the node and how many
	// of them are visible.
	counts() (total, visible int)
}

// leaf holds up to leafCap consecutive segments: segment i is the lens[i]
// instances of record recs[i] from offset offs[i] on. Segments from n on
// are nil and zero, their bits clear.
type leaf struct {
	gen uint64 // the buffer generation that made the node
	// vis has bit i set when segment i is visible (its record is not
	// deleted), so descents by visible count never load a record.
	vis uint64
	n   int
	// total and visible count the instances under the leaf, so counts is
	// O(1).
	total, visible int32
	recs           [leafCap]*run
	offs, lens     [leafCap]int32
}

// slot names one instance: its record and its offset in it.
type slot struct {
	r *run
	i int
}

// inner holds up to fanout children of one height, each with the number
// of instances under it and how many of them are visible.
type inner struct {
	gen   uint64 // the buffer generation that made the node
	n     int
	total [fanout]int32
	vis   [fanout]int32
	kids  [fanout]mnode
}

func (l *leaf) counts() (int, int) { return int(l.total), int(l.visible) }

func (in *inner) counts() (total, visible int) {
	for i := 0; i < in.n; i++ {
		total += int(in.total[i])
		visible += int(in.vis[i])
	}
	return total, visible
}

func countsOf(n mnode) (total, visible int) {
	if n == nil {
		return 0, 0
	}
	return n.counts()
}

// own returns l itself if gen made it, else a copy made in gen: the
// path-copy step.
func (l *leaf) own(gen uint64) *leaf {
	if l.gen == gen {
		return l
	}
	c := *l
	c.gen = gen
	return &c
}

func (in *inner) own(gen uint64) *inner {
	if in.gen == gen {
		return in
	}
	c := *in
	c.gen = gen
	return &c
}

// put installs kid as child i, with its counts.
func (in *inner) put(i int, kid mnode) {
	t, v := kid.counts()
	in.kids[i], in.total[i], in.vis[i] = kid, int32(t), int32(v)
}

// child returns the index of the child holding total rank k (the last
// child for k at or past the end) and k's rank within it.
func (in *inner) child(k int) (int, int) {
	i := 0
	for ; i < in.n-1 && k >= int(in.total[i]); i++ {
		k -= int(in.total[i])
	}
	return i, k
}

func visBit(r *run) uint64 {
	if r.deleted() {
		return 0
	}
	return 1
}

// put sets segment i of l to s; recount brings the counts up to date.
func (l *leaf) put(i int, s seg) {
	l.recs[i], l.offs[i], l.lens[i] = s.r, int32(s.lo), int32(s.hi-s.lo)
	l.vis = l.vis&^(1<<i) | visBit(s.r)<<i
}

func (l *leaf) seg(i int) seg {
	return seg{l.recs[i], int(l.offs[i]), int(l.offs[i] + l.lens[i])}
}

func (l *leaf) visibleSeg(i int) bool { return l.vis>>i&1 != 0 }

// recount sets the leaf's instance counts from its segments.
func (l *leaf) recount() {
	l.total, l.visible = 0, 0
	for i := 0; i < l.n; i++ {
		l.total += l.lens[i]
		if l.visibleSeg(i) {
			l.visible += l.lens[i]
		}
	}
}

// find returns the segment holding total rank k of l and k's offset in
// it: (l.n, 0) for k at the leaf's end.
func (l *leaf) find(k int) (i, off int) {
	for ; i < l.n && k >= int(l.lens[i]); i++ {
		k -= int(l.lens[i])
	}
	return i, k
}

// splice replaces segments [i, j) of l with head, the segments mid and
// tail — head and tail only when they hold instances, and together at
// least j-i segments, as nothing removes an instance — and appends the
// nodes that replace l to out: l itself or its copy when the segments
// fit, else balanced leaves cut from them.
func (l *leaf) splice(gen uint64, i, j int, head seg, mid []seg, tail seg, out []mnode) []mnode {
	hb, tb := [1]seg{head}, [1]seg{tail}
	hs, ts := hb[:0], tb[:0]
	if head.hi > head.lo {
		hs = hb[:]
	}
	if tail.hi > tail.lo {
		ts = tb[:]
	}
	m := len(hs) + len(mid) + len(ts)
	n := l.n - (j - i) + m
	if n > leafCap {
		// A split gathers the segments on the stack; only a splice of
		// many records, a long paste, needs the heap.
		var buf [leafCap + 8]seg
		all := buf[:0]
		if n > len(buf) {
			all = make([]seg, 0, n)
		}
		for k := 0; k < i; k++ {
			all = append(all, l.seg(k))
		}
		all = append(append(append(all, hs...), mid...), ts...)
		for k := j; k < l.n; k++ {
			all = append(all, l.seg(k))
		}
		return appendLeaves(gen, out, all)
	}
	c := l.own(gen)
	copy(c.recs[i+m:n], c.recs[j:c.n])
	copy(c.offs[i+m:n], c.offs[j:c.n])
	copy(c.lens[i+m:n], c.lens[j:c.n])
	c.vis = c.vis&(1<<i-1) | c.vis>>j<<(i+m)
	c.n = n
	k := i
	for _, part := range [][]seg{hs, mid, ts} {
		for _, s := range part {
			c.put(k, s)
			k++
		}
	}
	c.recount()
	return append(out, c)
}

// splice replaces child i with kids and appends the nodes that replace in
// to out: in itself or its copy when they fit, else balanced inner nodes
// cut from its children and kids.
func (in *inner) splice(gen uint64, i int, kids, out []mnode) []mnode {
	if grown := in.n - 1 + len(kids); grown > fanout {
		all := make([]mnode, 0, grown)
		all = append(append(append(all, in.kids[:i]...), kids...), in.kids[i+1:in.n]...)
		return appendInners(gen, out, all)
	}
	c := in.own(gen)
	if extra := len(kids) - 1; extra > 0 {
		copy(c.kids[i+1+extra:], c.kids[i+1:c.n])
		copy(c.total[i+1+extra:], c.total[i+1:c.n])
		copy(c.vis[i+1+extra:], c.vis[i+1:c.n])
		c.n += extra
	}
	for j, kid := range kids {
		c.put(i+j, kid)
	}
	return append(out, c)
}

// cut calls fn with the bounds of each of the ceil(m/size) chunks of
// balanced length that [0, m) is cut into.
func cut(m, size int, fn func(lo, hi int)) {
	for k, lo := (m+size-1)/size, 0; k > 0; k-- {
		hi := lo + (m-lo)/k
		fn(lo, hi)
		lo = hi
	}
}

// appendLeaves cuts segs into balanced leaves made in gen and appends
// them to out.
func appendLeaves(gen uint64, out []mnode, segs []seg) []mnode {
	cut(len(segs), leafCap, func(lo, hi int) {
		l := &leaf{gen: gen, n: hi - lo}
		for i, s := range segs[lo:hi] {
			l.put(i, s)
		}
		l.recount()
		out = append(out, l)
	})
	return out
}

// appendInners cuts kids, all of one height, into balanced inner nodes
// made in gen and appends them to out.
func appendInners(gen uint64, out, kids []mnode) []mnode {
	cut(len(kids), fanout, func(lo, hi int) {
		in := &inner{gen: gen, n: hi - lo}
		for i, kid := range kids[lo:hi] {
			in.put(i, kid)
		}
		out = append(out, in)
	})
	return out
}

// replace returns the root of the tree under root with the m instances
// from total rank r on, which must lie in one segment, replaced by the
// segments segs, copying in generation gen the nodes on the path that gen
// has not made. With m = 0 it inserts, cutting the segment r falls inside
// in two; else it is a delete, undelete or re-anchor, and cuts the
// segment into at most three. The leaf hands the nodes that replace it to
// the level above, each level in turn, and while more than one comes back
// from the top the root grows. An empty tree is an empty leaf, so Load and
// compaction build a whole tree through the same splice.
func replace(gen uint64, root mnode, r, m int, segs []seg) mnode {
	if m == 0 && len(segs) == 0 {
		return root
	}
	if root == nil {
		root = &leaf{gen: gen}
	}
	type step struct {
		in *inner
		i  int // the child the path takes
	}
	var stack [8]step
	path := stack[:0]
	n := root
	for in, ok := n.(*inner); ok; in, ok = n.(*inner) {
		i, k := in.child(r)
		path = append(path, step{in, i})
		n, r = in.kids[i], k
	}
	// A level reads every node it is handed before it appends its own to
	// the same buffer.
	var buf [2]mnode
	var nodes []mnode
	l := n.(*leaf)
	if i, off := l.find(r); off == 0 && m == 0 {
		nodes = l.splice(gen, i, i, seg{}, segs, seg{}, buf[:0])
	} else {
		s := l.seg(i)
		if s.lo+off+m > s.hi {
			panic(fmt.Sprintf("texttree: %d instances from offset %d overrun a segment of %d", m, off, s.hi-s.lo))
		}
		nodes = l.splice(gen, i, i+1, seg{s.r, s.lo, s.lo + off}, segs, seg{s.r, s.lo + off + m, s.hi}, buf[:0])
	}
	for d := len(path) - 1; d >= 0; d-- {
		nodes = path[d].in.splice(gen, path[d].i, nodes, buf[:0])
	}
	for len(nodes) > 1 {
		nodes = appendInners(gen, nil, nodes)
	}
	return nodes[0]
}

// segAt returns the segment under n holding total rank k, which n must
// hold, and k's offset in it.
func segAt(n mnode, k int) (seg, int) {
	for {
		if l, ok := n.(*leaf); ok {
			i, off := l.find(k)
			return l.seg(i), off
		}
		in := n.(*inner)
		var i int
		i, k = in.child(k)
		n = in.kids[i]
	}
}

// slotAt returns the slot at total rank k under n, which must hold it.
func slotAt(n mnode, k int) slot {
	s, off := segAt(n, k)
	return slot{s.r, s.lo + off}
}

// walk visits every slot under n in order, with its visibility, until fn
// returns false.
func walk(n mnode, fn func(s slot, visible bool) bool) bool {
	switch t := n.(type) {
	case *leaf:
		for i := 0; i < t.n; i++ {
			s, visible := t.seg(i), t.visibleSeg(i)
			for j := s.lo; j < s.hi; j++ {
				if !fn(slot{s.r, j}, visible) {
					return false
				}
			}
		}
	case *inner:
		for _, kid := range t.kids[:t.n] {
			if !walk(kid, fn) {
				return false
			}
		}
	}
	return true
}

// walkVisibleFrom visits the visible slots under n in order, starting
// with the one at visible rank skip, until fn returns false.
func walkVisibleFrom(n mnode, skip int, fn func(s slot) bool) bool {
	return walkVisibleSegs(n, skip, func(s seg) bool {
		for j := s.lo; j < s.hi; j++ {
			if !fn(slot{s.r, j}) {
				return false
			}
		}
		return true
	})
}

// walkVisibleSegs visits the visible segments under n in order, the first
// cut to start at visible rank skip, until fn returns false. It descends
// by visible counts — children and segments that hold nothing to visit
// are never entered — so reading k characters at any position costs
// O(log n + k), and k characters in s segments O(log n + s) by segment.
func walkVisibleSegs(n mnode, skip int, fn func(s seg) bool) bool {
	switch t := n.(type) {
	case *leaf:
		for b := t.vis; b != 0; b &= b - 1 {
			s := t.seg(bits.TrailingZeros64(b))
			if n := s.hi - s.lo; skip >= n {
				skip -= n
				continue
			}
			s.lo += skip
			skip = 0
			if !fn(s) {
				return false
			}
		}
	case *inner:
		for i, kid := range t.kids[:t.n] {
			if v := int(t.vis[i]); skip >= v {
				skip -= v
				continue
			}
			if !walkVisibleSegs(kid, skip, fn) {
				return false
			}
			skip = 0
		}
	}
	return true
}

// visibleBefore returns the number of visible records among the first k
// under n: the visible rank of the instance at total rank k.
func visibleBefore(n mnode, k int) int {
	v := 0
	for n != nil {
		if l, ok := n.(*leaf); ok {
			i, off := l.find(k)
			for b := l.vis & (1<<i - 1); b != 0; b &= b - 1 {
				v += int(l.lens[bits.TrailingZeros64(b)])
			}
			if i < l.n && l.visibleSeg(i) {
				v += off
			}
			return v
		}
		in := n.(*inner)
		i, rest := in.child(k)
		for _, c := range in.vis[:i] {
			v += int(c)
		}
		n, k = in.kids[i], rest
	}
	return v
}

// checkTree verifies the mirror's structure under root: every leaf at
// one depth, no node over capacity, no empty node but an empty root leaf,
// each cached count the sum of what the node holds, each segment a
// non-empty stretch inside its record and no continuation of the segment
// before it, each bitmap bit !Deleted of its record, and every segment
// past a node's end clear.
func checkTree(root mnode) error {
	leafDepth := -1
	var prev seg // the last segment met, in document order
	var check func(n mnode, depth int) (total, visible int, err error)
	check = func(n mnode, depth int) (total, visible int, err error) {
		switch t := n.(type) {
		case *leaf:
			if leafDepth < 0 {
				leafDepth = depth
			}
			switch {
			case depth != leafDepth:
				return 0, 0, fmt.Errorf("texttree: mirror leaves at depths %d and %d", leafDepth, depth)
			case t.n < 0 || t.n > leafCap:
				return 0, 0, fmt.Errorf("texttree: mirror leaf holds %d segments, capacity %d", t.n, leafCap)
			case t.n == 0 && depth > 0:
				return 0, 0, fmt.Errorf("texttree: empty mirror leaf at depth %d", depth)
			}
			for i, r := range t.recs {
				bit, off, cnt := t.visibleSeg(i), int(t.offs[i]), int(t.lens[i])
				switch {
				case i >= t.n && (r != nil || off != 0 || cnt != 0 || bit):
					return 0, 0, fmt.Errorf("texttree: mirror leaf of %d uses segment %d", t.n, i)
				case i >= t.n:
					continue
				case r == nil:
					return 0, 0, fmt.Errorf("texttree: mirror leaf segment %d without record", i)
				case cnt < 1 || off < 0 || off+cnt > r.len():
					return 0, 0, fmt.Errorf("texttree: mirror segment names instances [%d, %d) of a record of %d", off, off+cnt, r.len())
				case bit != !r.deleted():
					return 0, 0, fmt.Errorf("texttree: mirror visibility of %v disagrees with its record", r.id(off))
				case r == prev.r && off == prev.hi:
					return 0, 0, fmt.Errorf("texttree: mirror segment at %v continues the one before it", r.id(off))
				}
				prev = t.seg(i)
				total += cnt
				if bit {
					visible += cnt
				}
			}
			if total != int(t.total) || visible != int(t.visible) {
				return 0, 0, fmt.Errorf("texttree: mirror leaf counted %d/%d, holds %d/%d", t.total, t.visible, total, visible)
			}
			return total, visible, nil
		case *inner:
			if t.n < 1 || t.n > fanout {
				return 0, 0, fmt.Errorf("texttree: mirror inner node holds %d children, capacity %d", t.n, fanout)
			}
			for i := range t.kids {
				if i >= t.n {
					if t.kids[i] != nil || t.total[i] != 0 || t.vis[i] != 0 {
						return 0, 0, fmt.Errorf("texttree: mirror inner node of %d uses slot %d", t.n, i)
					}
					continue
				}
				ct, cv, err := check(t.kids[i], depth+1)
				if err != nil {
					return 0, 0, err
				}
				if int(t.total[i]) != ct || int(t.vis[i]) != cv {
					return 0, 0, fmt.Errorf("texttree: mirror child %d at depth %d counted %d/%d, holds %d/%d",
						i, depth, t.total[i], t.vis[i], ct, cv)
				}
				total, visible = total+ct, visible+cv
			}
			return total, visible, nil
		}
		return 0, 0, fmt.Errorf("texttree: mirror node %T at depth %d", n, depth)
	}
	if root == nil {
		return nil
	}
	_, _, err := check(root, 0)
	return err
}

// view is one version of the document: the mirror's root and the cold
// archive. Buffer embeds the current view and replaces its
// fields on every mutation; a Snapshot embeds a frozen copy. The readers
// are methods of view, so the live buffer and its snapshots share one
// implementation of each.
type view struct {
	root    mnode  // nil for an empty document
	version uint64 // increments on every mutation of the buffer
	// arch holds the cold tombstones compaction moved out of the trees
	// (archive.go). Replaced wholesale, never mutated, so a snapshot keeps
	// the archive it captured.
	arch *Archive
}

// Version identifies the buffer state: it increments on every committed
// mutation of the buffer and stamps the snapshots taken from it.
func (v *view) Version() uint64 { return v.version }

// Len returns the number of visible characters.
func (v *view) Len() int {
	_, n := countsOf(v.root)
	return n
}

// TotalLen returns the number of hot character instances, tombstones
// included (archived instances are not counted).
func (v *view) TotalLen() int {
	n, _ := countsOf(v.root)
	return n
}

// Archive returns the cold-tombstone archive (never nil). Archived
// instances are excluded from Walk, TotalLen and AllChars; WalkAll and
// TextAt merge them back in.
func (v *view) Archive() *Archive {
	if v.arch == nil {
		return emptyArchive
	}
	return v.arch
}

// Walk visits every hot character instance in order (tombstones included)
// until fn returns false. The Char is filled from the instance's record
// into one value the walk reuses: it is valid only during the call, and
// must not be mutated.
func (v *view) Walk(fn func(ch *Char, visible bool) bool) {
	var c Char
	var last *run
	walk(v.root, func(s slot, visible bool) bool {
		fillNext(&c, &last, s)
		return fn(&c, visible)
	})
}

// fillNext sets *c to the instance s names; *last is the record c was
// filled from before, whose shared fields need no rewriting.
func fillNext(c *Char, last **run, s slot) {
	if s.r == *last {
		s.r.fillOwn(c, s.i)
		return
	}
	s.r.fill(c, s.i)
	*last = s.r
}

// WalkVisible visits visible characters in order until fn returns false,
// with a Char valid only during the call (see Walk).
func (v *view) WalkVisible(fn func(ch *Char) bool) {
	v.walkVisible(0, v.Len(), fn)
}

// WalkVisibleFrom visits up to n visible characters in order, starting
// with the one at position pos, with a Char valid only during the call
// (see Walk). A range reaching before the first or past the last character
// is clipped. The cost is O(log n + visited) wherever pos lies: the walk
// descends to pos by visible count instead of scanning from the head.
func (v *view) WalkVisibleFrom(pos, n int, fn func(ch *Char)) {
	v.walkVisible(pos, n, func(ch *Char) bool {
		fn(ch)
		return true
	})
}

// walkVisible is WalkVisibleFrom with a visitor that can stop the walk.
func (v *view) walkVisible(pos, n int, fn func(ch *Char) bool) {
	var c Char
	var last *run
	v.slotsVisible(pos, n, func(s slot) bool {
		fillNext(&c, &last, s)
		return fn(&c)
	})
}

// WalkRunes visits the runes of up to n visible characters from position
// pos on, clipped as WalkVisibleFrom clips, until fn returns false. It
// reads the rune alone and fills no Char: the walk of a reader that wants
// text without rendering it to a string.
func (v *view) WalkRunes(pos, n int, fn func(r rune) bool) {
	v.slotsVisible(pos, n, func(s slot) bool { return fn(s.r.runes[s.i]) })
}

// slotsVisible visits the slots of up to n visible characters from
// position pos on, clipped as WalkVisibleFrom clips, until fn returns
// false.
func (v *view) slotsVisible(pos, n int, fn func(s slot) bool) {
	pos, n = v.window(pos, n)
	if n <= 0 {
		return
	}
	walkVisibleFrom(v.root, pos, func(s slot) bool {
		n--
		return fn(s) && n > 0
	})
}

// window clips [pos, pos+n) to the visible characters and returns its
// start and length (at most 0 when nothing is left).
func (v *view) window(pos, n int) (int, int) {
	if pos < 0 {
		n += pos
		pos = 0
	}
	return pos, min(n, v.Len()-pos)
}

// Text renders the visible text.
func (v *view) Text() string { return v.Slice(0, v.Len()) }

// TextAt reconstructs the text as it was at instant t (time travel):
// characters created at or before t and not deleted at t, in document order.
// On a snapshot, for t at or after the snapshot instant this equals Text()
// modulo edits the snapshot never saw. When t predates the compaction
// horizon the walk transparently merges the archived cold tombstones back
// in; at or after the newest archived deletion it filters the hot set
// alone.
func (v *view) TextAt(t time.Time) string {
	var sb strings.Builder
	emit := func(ch *Char, _ bool) bool {
		if !hiddenAt(ch, t) {
			sb.WriteRune(ch.Rune)
		}
		return true
	}
	if v.Archive().visibleAt(t) {
		v.WalkAll(emit)
	} else {
		v.Walk(emit)
	}
	return sb.String()
}

// Slice returns up to n visible characters starting at pos.
func (v *view) Slice(pos, n int) string {
	var sb strings.Builder
	if _, w := v.window(pos, n); w > 0 {
		sb.Grow(w)
	}
	v.slotsVisible(pos, n, func(s slot) bool {
		sb.WriteRune(s.r.runes[s.i])
		return true
	})
	return sb.String()
}

// slotVisible returns the slot of the visible character at pos; ok is
// false out of range.
func (v *view) slotVisible(pos int) (s slot, ok bool) {
	if pos < 0 || pos >= v.Len() {
		return slot{}, false
	}
	for n := v.root; ; {
		if l, ok := n.(*leaf); ok {
			for b := l.vis; ; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				if c := int(l.lens[i]); pos >= c {
					pos -= c
					continue
				}
				return slot{l.recs[i], int(l.offs[i]) + pos}, true
			}
		}
		in := n.(*inner)
		i := 0
		for ; pos >= int(in.vis[i]); i++ {
			pos -= int(in.vis[i])
		}
		n = in.kids[i]
	}
}

// CharAt returns the record of the visible character at pos.
func (v *view) CharAt(pos int) (Char, bool) {
	s, ok := v.slotVisible(pos)
	if !ok {
		return Char{}, false
	}
	var c Char
	s.r.fill(&c, s.i)
	return c, true
}

// RuneAt returns the rune of the visible character at pos.
func (v *view) RuneAt(pos int) (rune, bool) {
	s, ok := v.slotVisible(pos)
	if !ok {
		return 0, false
	}
	return s.r.runes[s.i], true
}

// IDAt returns the ID of the visible character at position pos.
func (v *view) IDAt(pos int) (util.ID, bool) {
	s, ok := v.slotVisible(pos)
	if !ok {
		return util.NilID, false
	}
	return s.r.id(s.i), true
}

// RangeIDs returns the IDs of visible characters in [pos, pos+n).
func (v *view) RangeIDs(pos, n int) []util.ID {
	_, w := v.window(pos, n)
	if w <= 0 {
		return nil
	}
	out := make([]util.ID, 0, w)
	v.slotsVisible(pos, n, func(s slot) bool {
		out = append(out, s.r.id(s.i))
		return true
	})
	return out
}

// VisibleIDs returns the IDs of all visible characters in order.
func (v *view) VisibleIDs() []util.ID { return v.RangeIDs(0, v.Len()) }

// RangeStretches returns the IDs of visible characters in [pos, pos+n) as
// stretches, clipped as WalkVisibleFrom clips: RangeIDs at a cost that
// follows the segments the range crosses, not its length.
func (v *view) RangeStretches(pos, n int) util.IDs {
	var ids util.IDs
	pos, n = v.window(pos, n)
	if n <= 0 {
		return ids
	}
	walkVisibleSegs(v.root, pos, func(s seg) bool {
		take := min(n, s.hi-s.lo)
		ids.AppendRun(s.r.id(s.lo), int64(s.r.step), take)
		n -= take
		return n > 0
	})
	return ids
}

// AllChars returns a copy of every hot character instance in document order
// (warm tombstones included, archived instances excluded): the persistent
// form of the document's hot set. The archive persists separately.
func (v *view) AllChars() []Char {
	out := make([]Char, 0, v.TotalLen())
	v.Walk(func(ch *Char, _ bool) bool {
		out = append(out, *ch)
		return true
	})
	return out
}

// Snapshot is an immutable, internally consistent view of a Buffer at one
// instant. Acquisition is O(1) and reads never take a lock: concurrent
// writers keep publishing new versions without disturbing any snapshot a
// reader already holds. It supports the same read surface as the live
// buffer, including time travel, which on a snapshot reconstructs the text
// as of any instant at or before the snapshot was taken. It keeps no index
// by ID: a by-identity read walks the frozen mirror in order, up to the
// last instance it asks for.
type Snapshot struct {
	view

	// Text() is memoised: a snapshot is immutable, so its visible text is
	// rendered exactly once into a buffer sized up front and then shared by
	// every base and read that hits the same published version.
	textOnce sync.Once
	text     string
}

// Snapshot returns an immutable view of the buffer's current state. It is
// O(1): the returned snapshot shares structure with the live buffer.
// Taking it ends the buffer's generation, which freezes every mirror node
// reachable now: later writes copy such a node before they change it, so
// the snapshot stays as it was while the buffer moves on. The caller may
// read it from any goroutine without synchronisation, but taking the
// snapshot itself is a write to the buffer and must be serialised with
// writers (callers in core do it under the document lock, or before the
// document is shared).
func (b *Buffer) Snapshot() *Snapshot {
	b.gen++
	return &Snapshot{view: b.view}
}

// Text returns the visible text of the snapshot. The first call renders
// the text into a single pre-sized buffer; subsequent calls (and every
// other reader of this published version) share the rendered string.
func (s *Snapshot) Text() string {
	s.textOnce.Do(func() { s.text = s.view.Text() })
	return s.text
}

// WithArchive returns a view of this snapshot with a as its cold
// archive, sharing the frozen tree. Core uses it to merge a lazily
// loaded archive into snapshots published while the archive was still on
// disk: such a snapshot's hot tree predates every later compaction pass,
// so the archive as first loaded is exactly its missing cold set.
func (s *Snapshot) WithArchive(a *Archive) *Snapshot {
	v := s.view
	v.arch = a
	return &Snapshot{view: v}
}

// Anchor is where one character instance sits in a snapshot.
type Anchor struct {
	Rank    int  // visible characters strictly before the instance
	Visible bool // the instance is a visible character
	Known   bool // the snapshot holds the instance, hot or archived
}

// Resolve locates every id in one in-order walk of the frozen mirror,
// which stops as soon as each wanted hot instance has been met. A segment
// whose ID range holds none of the wanted IDs costs one binary search of
// them, whatever its length. A tombstone's Rank is where its text would
// resume. An archived instance resolves through its run's anchor: no
// visible character lives inside an archive run, so its text resumes right
// after the anchor (the anchor's Rank, +1 if the anchor is visible; 0 for
// a run at the head). An id the snapshot has never seen (inserted after it
// was taken) is not Known.
func (s *Snapshot) Resolve(ids []util.ID) []Anchor {
	arch := s.Archive()
	hot := make(map[util.ID]Anchor, len(ids))
	want := make([]util.ID, 0, len(ids)) // the hot IDs to find, ascending
	for _, id := range ids {
		if anchor, ok := arch.AnchorOf(id); ok {
			id = anchor
		}
		if _, dup := hot[id]; !id.IsNil() && !dup {
			hot[id] = Anchor{}
			want = append(want, id)
		}
	}
	slices.Sort(want)
	left, rank := len(want), 0
	walkLeaves(s.root, func(l *leaf) bool {
		v := rank // visible instances before segment i
		for i := 0; i < l.n && left > 0; i++ {
			sg, visible := l.seg(i), l.visibleSeg(i)
			// The wanted IDs in the segment's ID range, some of which other
			// records may hold.
			last := sg.r.id(sg.hi - 1)
			j, _ := slices.BinarySearch(want, sg.r.id(sg.lo))
			for ; j < len(want) && want[j] <= last; j++ {
				if at := sg.r.index(want[j]); at >= sg.lo {
					a := Anchor{Rank: v, Visible: visible, Known: true}
					if visible {
						a.Rank += at - sg.lo
					}
					hot[want[j]] = a
					left--
				}
			}
			if visible {
				v += sg.hi - sg.lo
			}
		}
		rank += int(l.visible)
		return left > 0
	})
	out := make([]Anchor, len(ids))
	for i, id := range ids {
		anchor, archived := arch.AnchorOf(id)
		switch {
		case !archived:
			out[i] = hot[id]
		case anchor.IsNil():
			out[i] = Anchor{Known: true}
		default:
			a := hot[anchor]
			if a.Visible {
				a.Rank++
			}
			out[i] = Anchor{Rank: a.Rank, Known: a.Known}
		}
	}
	return out
}

// Char returns the frozen record of the instance with id, hot or
// archived. A hot instance costs a walk of the mirror up to it, which
// tests each segment's ID range once and fills no Char but the one found.
func (s *Snapshot) Char(id util.ID) (Char, bool) {
	if ch, ok := s.Archive().Char(id); ok {
		return *ch, true
	}
	var ch Char
	found := false
	walkLeaves(s.root, func(l *leaf) bool {
		for i := 0; i < l.n; i++ {
			sg := l.seg(i)
			if at := sg.r.index(id); at >= sg.lo && at < sg.hi {
				sg.r.fill(&ch, at)
				found = true
				return false
			}
		}
		return true
	})
	return ch, found
}

// walkLeaves visits the leaves under n in order until fn returns false.
func walkLeaves(n mnode, fn func(l *leaf) bool) bool {
	switch t := n.(type) {
	case *leaf:
		return fn(t)
	case *inner:
		for _, kid := range t.kids[:t.n] {
			if !walkLeaves(kid, fn) {
				return false
			}
		}
	}
	return true
}

// CheckInvariants verifies the snapshot's internal consistency: the
// mirror's structure and cached counts (checkTree), visibility bits that
// agree with the character records, and every instance after the instance
// it was typed after. A snapshot taken at any commit boundary must always
// pass, no matter how many writers have since moved the live buffer on.
func (s *Snapshot) CheckInvariants() error {
	if err := checkTree(s.root); err != nil {
		return err
	}
	seen := make(map[util.ID]bool, s.TotalLen())
	var err error
	s.Walk(func(ch *Char, _ bool) bool {
		if !ch.After.IsNil() && !seen[ch.After] {
			err = fmt.Errorf("texttree: snapshot holds %v before %v, the instance it was typed after", ch.ID, ch.After)
			return false
		}
		seen[ch.ID] = true
		return true
	})
	return err
}
