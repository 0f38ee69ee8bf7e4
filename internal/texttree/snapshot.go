package texttree

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tendax/internal/util"
)

// This file implements the MVCC side of the text representation: a
// persistent (path-copying) implicit treap over the document, so a Buffer can
// hand out an immutable Snapshot of the whole document in O(1) without
// blocking writers. Writers address it by total rank, which the
// parent-pointer order treap answers, and mirror every change into it
// (split/merge along a copied root path); readers hold the old root and
// never observe the change. Copying is per generation, not per write: a
// node carries the buffer generation that made it, taking a snapshot ends
// the generation, and a write copies only nodes of earlier generations —
// a node the current generation already copied is updated in place, as no
// snapshot can reach it. Every positional and visibility query, for the
// live buffer and for snapshots, is answered here. Old snapshots are
// reclaimed by the garbage collector once the last reader drops them — no
// epoch bookkeeping is needed.

// pnode is one node of the persistent treap. A node of an ended
// generation may be reachable from a snapshot and is never mutated;
// updates copy its root-to-target path into the current generation and
// share everything else.
type pnode struct {
	prio   uint64
	gen    uint64 // the buffer generation that made the node
	left   *pnode
	right  *pnode
	size   int // total nodes in subtree
	vcount int // visible nodes in subtree
	// visible is !ch.Deleted, kept in the node so descents by visible
	// count never load the record.
	visible bool
	ch      *Char // frozen character record for this version
}

func (n *pnode) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *pnode) vcountOf() int {
	if n == nil {
		return 0
	}
	return n.vcount
}

func (n *pnode) recompute() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
	n.vcount = n.left.vcountOf() + n.right.vcountOf()
	if n.visible {
		n.vcount++
	}
}

// with returns n with the given children in generation gen (the path-copy
// step): n itself, updated in place, if gen made it, else a copy made in
// gen. The old tree the caller splits or merges is consumed either way.
func (n *pnode) with(gen uint64, left, right *pnode) *pnode {
	c := n
	if n.gen != gen {
		c = &pnode{prio: n.prio, gen: gen, visible: n.visible, ch: n.ch}
	}
	c.left, c.right = left, right
	c.recompute()
	return c
}

// psplit splits the treap into the first k nodes and the rest, copying
// only the nodes along the split path that gen has not made.
func psplit(gen uint64, n *pnode, k int) (*pnode, *pnode) {
	if n == nil {
		return nil, nil
	}
	if k <= n.left.sizeOf() {
		l, r := psplit(gen, n.left, k)
		return l, n.with(gen, r, n.right)
	}
	l, r := psplit(gen, n.right, k-n.left.sizeOf()-1)
	return n.with(gen, n.left, l), r
}

// pmerge joins two treaps (every node of a precedes every node of b),
// copying only the merge path nodes that gen has not made. Smaller
// priority wins the root, matching the mutable treap's min-heap
// orientation.
func pmerge(gen uint64, a, b *pnode) *pnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio < b.prio {
		return a.with(gen, a.left, pmerge(gen, a.right, b))
	}
	return b.with(gen, pmerge(gen, a, b.left), b.right)
}

// pset replaces the character record (and with it the visibility) of the
// node at total rank k, path-copying down to it in generation gen.
func pset(gen uint64, n *pnode, k int, ch *Char) *pnode {
	ls := n.left.sizeOf()
	switch {
	case k < ls:
		return n.with(gen, pset(gen, n.left, k, ch), n.right)
	case k == ls:
		c := n.with(gen, n.left, n.right)
		c.visible, c.ch = !ch.Deleted, ch
		c.recompute()
		return c
	default:
		return n.with(gen, n.left, pset(gen, n.right, k-ls-1, ch))
	}
}

// pbuild constructs a treap from the n records at(0..n-1), already in
// document order, in O(n) using the rightmost-spine construction. The nodes
// are made in generation gen, freshly allocated and unshared, so in-place
// fixup is safe until the root is published.
func pbuild(gen uint64, n int, at func(i int) *Char) *pnode {
	// The right spine is O(log n) deep, so the stack rarely outgrows 32 and
	// a short run builds without allocating it.
	stack := make([]*pnode, 0, 32)
	for i := 0; i < n; i++ {
		ch := at(i)
		nd := &pnode{prio: prioFor(ch.ID), gen: gen, visible: !ch.Deleted, ch: ch}
		var last *pnode
		for len(stack) > 0 && stack[len(stack)-1].prio > nd.prio {
			last = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		nd.left = last
		if len(stack) > 0 {
			stack[len(stack)-1].right = nd
		}
		stack = append(stack, nd)
	}
	if len(stack) == 0 {
		return nil
	}
	root := stack[0]
	refixAll(root)
	return root
}

func refixAll(n *pnode) {
	if n == nil {
		return
	}
	refixAll(n.left)
	refixAll(n.right)
	n.recompute()
}

// pwalk visits every node in order until fn returns false.
func pwalk(n *pnode, fn func(n *pnode) bool) bool {
	if n == nil {
		return true
	}
	if !pwalk(n.left, fn) {
		return false
	}
	if !fn(n) {
		return false
	}
	return pwalk(n.right, fn)
}

// pwalkVisibleFrom visits the visible nodes under n in order, starting with
// the one at visible rank skip, until fn returns false. It descends by
// subtree visible counts — subtrees that hold nothing to visit are never
// entered — so reading k characters at any position costs O(log n + k).
func pwalkVisibleFrom(n *pnode, skip int, fn func(n *pnode) bool) bool {
	if n == nil || skip >= n.vcount {
		return true
	}
	if lv := n.left.vcountOf(); skip < lv {
		if !pwalkVisibleFrom(n.left, skip, fn) {
			return false
		}
		skip = 0
	} else {
		skip -= lv
	}
	if n.visible {
		if skip > 0 {
			skip--
		} else if !fn(n) {
			return false
		}
	}
	return pwalkVisibleFrom(n.right, skip, fn)
}

// pvisibleBefore returns the number of visible nodes among the first k
// nodes under n: the visible rank of the instance at total rank k.
func pvisibleBefore(n *pnode, k int) int {
	v := 0
	for n != nil {
		ls := n.left.sizeOf()
		if k <= ls {
			n = n.left
			continue
		}
		v += n.left.vcountOf()
		if n.visible {
			v++
		}
		k -= ls + 1
		n = n.right
	}
	return v
}

// view is one version of the document: the mirror's root and the cold
// archive. Buffer embeds the current view and replaces its
// fields on every mutation; a Snapshot embeds a frozen copy. The readers
// are methods of view, so the live buffer and its snapshots share one
// implementation of each.
type view struct {
	root    *pnode
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
func (v *view) Len() int { return v.root.vcountOf() }

// TotalLen returns the number of hot character instances, tombstones
// included (archived instances are not counted).
func (v *view) TotalLen() int { return v.root.sizeOf() }

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
// until fn returns false. On a snapshot the Char is the frozen record of
// its version; on the live buffer it must not be mutated.
func (v *view) Walk(fn func(ch *Char, visible bool) bool) {
	pwalk(v.root, func(n *pnode) bool { return fn(n.ch, n.visible) })
}

// WalkVisible visits visible characters in order until fn returns false.
func (v *view) WalkVisible(fn func(ch *Char) bool) {
	pwalkVisibleFrom(v.root, 0, func(n *pnode) bool { return fn(n.ch) })
}

// WalkVisibleFrom visits up to n visible characters in order, starting
// with the one at position pos. A range reaching before the first or past
// the last character is clipped. The cost is O(log n + visited) wherever
// pos lies: the walk descends to pos by visible count instead of scanning
// from the head.
func (v *view) WalkVisibleFrom(pos, n int, fn func(ch *Char)) {
	if pos < 0 {
		n += pos
		pos = 0
	}
	if n <= 0 {
		return
	}
	pwalkVisibleFrom(v.root, pos, func(nd *pnode) bool {
		fn(nd.ch)
		n--
		return n > 0
	})
}

// Text renders the visible text.
func (v *view) Text() string {
	var sb strings.Builder
	sb.Grow(v.Len())
	v.WalkVisible(func(ch *Char) bool {
		sb.WriteRune(ch.Rune)
		return true
	})
	return sb.String()
}

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
	v.WalkVisibleFrom(pos, n, func(ch *Char) { sb.WriteRune(ch.Rune) })
	return sb.String()
}

// charAt returns the record of the visible character at pos, or nil.
func (v *view) charAt(pos int) *Char {
	n := v.root
	if pos < 0 || pos >= n.vcountOf() {
		return nil
	}
	for {
		lv := n.left.vcountOf()
		switch {
		case pos < lv:
			n = n.left
		case pos == lv && n.visible:
			return n.ch
		default:
			pos -= lv
			if n.visible {
				pos--
			}
			n = n.right
		}
	}
}

// CharAt returns a copy of the record of the visible character at pos.
func (v *view) CharAt(pos int) (Char, bool) {
	if ch := v.charAt(pos); ch != nil {
		return *ch, true
	}
	return Char{}, false
}

// IDAt returns the ID of the visible character at position pos.
func (v *view) IDAt(pos int) (util.ID, bool) {
	if ch := v.charAt(pos); ch != nil {
		return ch.ID, true
	}
	return util.NilID, false
}

// RangeIDs returns the IDs of visible characters in [pos, pos+n).
func (v *view) RangeIDs(pos, n int) []util.ID {
	var out []util.ID
	v.WalkVisibleFrom(pos, n, func(ch *Char) { out = append(out, ch.ID) })
	return out
}

// VisibleIDs returns the IDs of all visible characters in order.
func (v *view) VisibleIDs() []util.ID {
	out := make([]util.ID, 0, v.Len())
	v.WalkVisible(func(ch *Char) bool {
		out = append(out, ch.ID)
		return true
	})
	return out
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
// which stops as soon as each wanted hot instance has been met. A
// tombstone's Rank is where its text would resume. An archived instance
// resolves through its run's anchor: no visible character lives inside an
// archive run, so its text resumes right after the anchor (the anchor's
// Rank, +1 if the anchor is visible; 0 for a run at the head). An id the
// snapshot has never seen (inserted after it was taken) is not Known.
func (s *Snapshot) Resolve(ids []util.ID) []Anchor {
	arch := s.Archive()
	hot := make(map[util.ID]Anchor, len(ids))
	for _, id := range ids {
		if anchor, ok := arch.AnchorOf(id); ok {
			id = anchor
		}
		if !id.IsNil() {
			hot[id] = Anchor{}
		}
	}
	left, rank := len(hot), 0
	pwalk(s.root, func(n *pnode) bool {
		if _, ok := hot[n.ch.ID]; ok {
			hot[n.ch.ID] = Anchor{Rank: rank, Visible: n.visible, Known: true}
			left--
		}
		if n.visible {
			rank++
		}
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
// archived. A hot instance costs a walk of the mirror up to it.
func (s *Snapshot) Char(id util.ID) (Char, bool) {
	if ch, ok := s.Archive().Char(id); ok {
		return *ch, true
	}
	var ch Char
	found := !pwalk(s.root, func(n *pnode) bool {
		if n.ch.ID != id {
			return true
		}
		ch = *n.ch
		return false
	})
	return ch, found
}

// CheckInvariants verifies the snapshot's internal consistency: every
// instance comes after the instance it was typed after, visibility flags
// agree with the character records, and the subtree counts are right. A
// snapshot taken at any commit boundary must always pass, no matter how
// many writers have since moved the live buffer on.
func (s *Snapshot) CheckInvariants() error {
	seen := make(map[util.ID]bool, s.TotalLen())
	count, visible := 0, 0
	var err error
	pwalk(s.root, func(n *pnode) bool {
		ch := n.ch
		switch {
		case ch == nil:
			err = fmt.Errorf("texttree: snapshot node %d without char", count)
		case n.visible != !ch.Deleted:
			err = fmt.Errorf("texttree: snapshot visibility of %v disagrees with char state", ch.ID)
		case !ch.After.IsNil() && !seen[ch.After]:
			err = fmt.Errorf("texttree: snapshot holds %v before %v, the instance it was typed after", ch.ID, ch.After)
		}
		if err != nil {
			return false
		}
		seen[ch.ID] = true
		count++
		if n.visible {
			visible++
		}
		return true
	})
	if err != nil {
		return err
	}
	if count != s.TotalLen() {
		return fmt.Errorf("texttree: snapshot walk saw %d of %d instances", count, s.TotalLen())
	}
	if visible != s.Len() {
		return fmt.Errorf("texttree: snapshot visible count %d vs %d", visible, s.Len())
	}
	return nil
}
