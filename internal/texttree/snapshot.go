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
// blocking writers. Leaves hold slots in document order — each names a
// record and the instance's offset in it — with a visibility bitmap; inner
// nodes hold their children with each child's total and visible counts.
// Writers address the tree by total rank, which the order's extent treap
// answers, and mirror every change into it along one root-to-leaf path;
// readers hold the old root and never observe the change. Copying is per generation, not per write:
// a node carries the buffer generation that made it, taking a snapshot
// ends the generation, and a write copies only nodes of earlier
// generations — a node the current generation already copied is updated in
// place, as no snapshot can reach it. Nothing removes a slot except
// compaction, which rebuilds the tree, so nodes never underflow and never
// merge. Every positional and visibility query, for the live buffer and
// for snapshots, is answered here. Old snapshots are reclaimed by the
// garbage collector once the last reader drops them — no epoch bookkeeping
// is needed.

const (
	// leafCap is the number of slots a leaf holds, one bit each in its
	// visibility bitmap. A full leaf costs 14 B per instance.
	leafCap = 64
	// fanout is the number of children an inner node holds. At 20k
	// instances the tree is a root, one level of inner nodes and the
	// leaves, so a key typed after a snapshot copies three nodes.
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

// leaf holds up to leafCap consecutive slots: slot i is instance offs[i]
// of record recs[i]. Slots from n on are nil and zero, their bits clear.
type leaf struct {
	gen uint64 // the buffer generation that made the node
	n   int
	// vis has bit i set when slot i is visible (its record is not
	// deleted), so descents by visible count never load a record.
	vis  uint64
	recs [leafCap]*run
	offs [leafCap]int32
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

func (l *leaf) counts() (int, int) { return l.n, bits.OnesCount64(l.vis) }

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

// put sets slot i of l to s.
func (l *leaf) put(i int, s slot) {
	l.recs[i], l.offs[i] = s.r, int32(s.i)
	l.vis = l.vis&^(1<<i) | visBit(s.r)<<i
}

func (l *leaf) slot(i int) slot { return slot{l.recs[i], int(l.offs[i])} }

// insert returns the root of the tree under root with the m slots
// at(0), ..., at(m-1) spliced in at total rank r, copying in generation gen
// the nodes on the path that gen has not made. Each level hands the nodes
// that replace its node to the level above, and while more than one comes
// back from the top the root grows. An empty tree is an empty leaf, so Load
// and compaction build a whole tree through the same splice.
func insert(gen uint64, root mnode, r, m int, at func(i int) slot) mnode {
	if m == 0 {
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
	nodes := n.(*leaf).splice(gen, r, m, at, buf[:0])
	for d := len(path) - 1; d >= 0; d-- {
		nodes = path[d].in.splice(gen, path[d].i, nodes, buf[:0])
	}
	for len(nodes) > 1 {
		nodes = appendInners(gen, nil, nodes)
	}
	return nodes[0]
}

// splice inserts the m slots at(0), ..., at(m-1) at rank r and appends
// the nodes that replace l to out: l itself or its copy when they fit,
// else balanced leaves cut from its slots and the new ones.
func (l *leaf) splice(gen uint64, r, m int, at func(i int) slot, out []mnode) []mnode {
	if l.n+m > leafCap {
		return appendLeaves(gen, out, l.n+m, func(i int) slot {
			switch {
			case i < r:
				return l.slot(i)
			case i < r+m:
				return at(i - r)
			default:
				return l.slot(i - m)
			}
		})
	}
	c := l.own(gen)
	copy(c.recs[r+m:c.n+m], c.recs[r:c.n])
	copy(c.offs[r+m:c.n+m], c.offs[r:c.n])
	c.vis = (c.vis & (1<<r - 1)) | (c.vis >> r << (r + m))
	for i := 0; i < m; i++ {
		c.put(r+i, at(i))
	}
	c.n += m
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

// appendLeaves cuts the m slots at(0), ..., at(m-1) into balanced leaves
// made in gen and appends them to out.
func appendLeaves(gen uint64, out []mnode, m int, at func(i int) slot) []mnode {
	cut(m, leafCap, func(lo, hi int) {
		l := &leaf{gen: gen, n: hi - lo}
		for i := 0; i < l.n; i++ {
			l.put(i, at(lo+i))
		}
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

// setRange returns n with the m slots from total rank k on replaced by
// at(from), ..., at(from+m-1) (and with them the visibility), copying in
// generation gen the nodes on the paths that gen has not made.
func setRange(gen uint64, n mnode, k, m int, at func(i int) slot, from int) mnode {
	if l, ok := n.(*leaf); ok {
		c := l.own(gen)
		for i := 0; i < m; i++ {
			c.put(k+i, at(from+i))
		}
		return c
	}
	c := n.(*inner).own(gen)
	for i := 0; i < c.n && m > 0; i++ {
		t := int(c.total[i])
		if k >= t {
			k -= t
			continue
		}
		take := min(m, t-k)
		c.put(i, setRange(gen, c.kids[i], k, take, at, from))
		from, m, k = from+take, m-take, 0
	}
	return c
}

// slotAt returns the slot at total rank k under n, which must hold it.
func slotAt(n mnode, k int) slot {
	for {
		if l, ok := n.(*leaf); ok {
			return l.slot(k)
		}
		in := n.(*inner)
		var i int
		i, k = in.child(k)
		n = in.kids[i]
	}
}

// walk visits every slot under n in order, with its visibility, until fn
// returns false.
func walk(n mnode, fn func(s slot, visible bool) bool) bool {
	switch t := n.(type) {
	case *leaf:
		for i := 0; i < t.n; i++ {
			if !fn(t.slot(i), t.vis>>i&1 != 0) {
				return false
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
// with the one at visible rank skip, until fn returns false. It descends
// by visible counts — children that hold nothing to visit are never
// entered — so reading k characters at any position costs O(log n + k).
func walkVisibleFrom(n mnode, skip int, fn func(s slot) bool) bool {
	switch t := n.(type) {
	case *leaf:
		for b := t.vis; b != 0; b &= b - 1 {
			if skip > 0 {
				skip--
			} else if !fn(t.slot(bits.TrailingZeros64(b))) {
				return false
			}
		}
	case *inner:
		for i, kid := range t.kids[:t.n] {
			if v := int(t.vis[i]); skip >= v {
				skip -= v
				continue
			}
			if !walkVisibleFrom(kid, skip, fn) {
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
			return v + bits.OnesCount64(l.vis&(1<<k-1))
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
// each cached count the sum of what the child holds, each slot inside its
// record, each bitmap bit !Deleted of its record, and every slot past a
// node's end clear.
func checkTree(root mnode) error {
	leafDepth := -1
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
				return 0, 0, fmt.Errorf("texttree: mirror leaf holds %d records, capacity %d", t.n, leafCap)
			case t.n == 0 && depth > 0:
				return 0, 0, fmt.Errorf("texttree: empty mirror leaf at depth %d", depth)
			}
			for i, r := range t.recs {
				bit, off := t.vis>>i&1 != 0, int(t.offs[i])
				switch {
				case i >= t.n && (r != nil || off != 0 || bit):
					return 0, 0, fmt.Errorf("texttree: mirror leaf of %d uses slot %d", t.n, i)
				case i < t.n && r == nil:
					return 0, 0, fmt.Errorf("texttree: mirror leaf slot %d without record", i)
				case i < t.n && (off < 0 || off >= r.len()):
					return 0, 0, fmt.Errorf("texttree: mirror slot names instance %d of a record of %d", off, r.len())
				case i < t.n && bit != !r.deleted():
					return 0, 0, fmt.Errorf("texttree: mirror visibility of %v disagrees with its record", r.id(off))
				}
			}
			total, visible = t.counts()
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
			b := l.vis
			for ; pos > 0; pos-- {
				b &= b - 1
			}
			return l.slot(bits.TrailingZeros64(b)), true
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
	// every open/resync/read that hits the same published version.
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
// which stops as soon as each wanted hot instance has been met. A leaf
// whose records hold none of the wanted IDs in their ID ranges is passed
// by its visible count alone. A tombstone's Rank is where its text would
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
	wanted := func(r *run) bool {
		i, _ := slices.BinarySearch(want, r.first)
		return i < len(want) && want[i] <= r.last()
	}
	left, rank := len(want), 0
	walkLeaves(s.root, func(l *leaf) bool {
		var last *run
		in := false
		for i := 0; i < l.n && left > 0; i++ {
			if r := l.recs[i]; r != last {
				last, in = r, wanted(r)
			}
			if !in {
				continue
			}
			id := last.id(int(l.offs[i]))
			if _, ok := hot[id]; ok {
				visible := l.vis>>i&1 != 0
				hot[id] = Anchor{Rank: rank + bits.OnesCount64(l.vis&(1<<i-1)), Visible: visible, Known: true}
				left--
			}
		}
		rank += bits.OnesCount64(l.vis)
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
// tests each record's ID range once and fills no Char but the one found.
func (s *Snapshot) Char(id util.ID) (Char, bool) {
	if ch, ok := s.Archive().Char(id); ok {
		return *ch, true
	}
	var ch Char
	found := false
	walkLeaves(s.root, func(l *leaf) bool {
		var last *run
		at := -1
		for i := 0; i < l.n; i++ {
			if r := l.recs[i]; r != last {
				last, at = r, r.index(id)
			}
			if at >= 0 && int(l.offs[i]) == at {
				last.fill(&ch, at)
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
