package texttree

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"tendax/internal/util"
)

// This file implements the MVCC side of the text representation: a
// persistent (path-copying) implicit treap mirroring the mutable Order, so
// a Buffer can hand out an immutable Snapshot of the whole document in
// O(1) without blocking writers. Writers keep mutating the parent-pointer
// treap for O(log n) rank-by-ID lookups and mirror every change into the
// persistent treap by rank (split/merge along a copied root path); readers
// hold the old root and never observe the change. Old snapshots are
// reclaimed by the garbage collector once the last reader drops them — no
// epoch bookkeeping is needed.

// pnode is one node of the persistent treap. Once reachable from a
// published snapshot root it is never mutated; updates copy the root-to-
// target path and share everything else.
type pnode struct {
	id      util.ID
	prio    uint64
	left    *pnode
	right   *pnode
	size    int // total nodes in subtree
	vcount  int // visible nodes in subtree
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

// with returns a copy of n with the given children (the path-copy step).
func (n *pnode) with(left, right *pnode) *pnode {
	c := &pnode{id: n.id, prio: n.prio, visible: n.visible, ch: n.ch,
		left: left, right: right}
	c.recompute()
	return c
}

// psplit splits the treap into the first k nodes and the rest, copying
// only the nodes along the split path.
func psplit(n *pnode, k int) (*pnode, *pnode) {
	if n == nil {
		return nil, nil
	}
	if k <= n.left.sizeOf() {
		l, r := psplit(n.left, k)
		return l, n.with(r, n.right)
	}
	l, r := psplit(n.right, k-n.left.sizeOf()-1)
	return n.with(n.left, l), r
}

// pmerge joins two treaps (every node of a precedes every node of b),
// copying only the merge path. Smaller priority wins the root, matching
// the mutable treap's min-heap orientation.
func pmerge(a, b *pnode) *pnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio < b.prio {
		return a.with(a.left, pmerge(a.right, b))
	}
	return b.with(pmerge(a, b.left), b.right)
}

// pinsert places a fresh node (no children) at total rank k.
func pinsert(root *pnode, k int, n *pnode) *pnode {
	n.recompute()
	l, r := psplit(root, k)
	return pmerge(pmerge(l, n), r)
}

// pset replaces the character record and visibility of the node at total
// rank k, path-copying down to it.
func pset(n *pnode, k int, ch *Char, visible bool) *pnode {
	ls := n.left.sizeOf()
	switch {
	case k < ls:
		return n.with(pset(n.left, k, ch, visible), n.right)
	case k == ls:
		c := &pnode{id: n.id, prio: n.prio, visible: visible, ch: ch,
			left: n.left, right: n.right}
		c.recompute()
		return c
	default:
		return n.with(n.left, pset(n.right, k-ls-1, ch, visible))
	}
}

// pbuild constructs a treap from chars already in chain order in O(n),
// using the rightmost-spine construction. The nodes are freshly allocated
// and unshared, so in-place fixup is safe until the root is published.
func pbuild(chars []*Char) *pnode {
	var stack []*pnode
	for _, ch := range chars {
		n := &pnode{id: ch.ID, prio: prioFor(ch.ID), visible: !ch.Deleted, ch: ch}
		var last *pnode
		for len(stack) > 0 && stack[len(stack)-1].prio > n.prio {
			last = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		n.left = last
		if len(stack) > 0 {
			stack[len(stack)-1].right = n
		}
		stack = append(stack, n)
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

// Snapshot is an immutable, internally consistent view of a Buffer at one
// instant. Acquisition is O(1) and reads never take a lock: concurrent
// writers keep publishing new versions without disturbing any snapshot a
// reader already holds. It supports the same read surface as the live
// buffer, including time travel, which on a snapshot reconstructs the text
// as of any instant at or before the snapshot was taken.
type Snapshot struct {
	root    *pnode
	head    util.ID
	version uint64
	arch    *Archive // frozen cold-tombstone archive of this version

	// Rank-by-ID queries need a root-to-node path the persistent treap
	// cannot provide; the first such query materialises an index over the
	// frozen tree, shared by all subsequent queries on this snapshot (and
	// by every DocSnapshot wrapper of the same published version). The
	// build walks all hot instances including warm tombstones — O(hot),
	// amortised to at most once per committed version and only paid when
	// rank queries (span resolution) actually occur. Tombstone compaction
	// (archive.go) is what keeps "hot" near the visible size on documents
	// whose dead text would otherwise dominate: archived instances are
	// not in this index — RankOf resolves them through their run's anchor
	// instead, so span anchors keep resolving after compaction.
	once  sync.Once
	index map[util.ID]snapEntry

	// Text() is memoised: a snapshot is immutable, so its visible text is
	// rendered exactly once into a buffer sized up front and then shared by
	// every open/resync/read that hits the same published version.
	textOnce sync.Once
	text     string
}

type snapEntry struct {
	ch      *Char
	visRank int // visible chars strictly before this instance
}

// Snapshot returns an immutable view of the buffer's current state. It is
// O(1): the returned snapshot shares structure with the live buffer, and
// copy-on-write updates keep it frozen while the buffer moves on. The
// caller may read it from any goroutine without synchronisation, but
// taking the snapshot itself must be serialised with writers (callers in
// core do it under the document lock, or atomically republish).
func (b *Buffer) Snapshot() *Snapshot {
	return &Snapshot{root: b.proot, head: b.head, version: b.version, arch: b.Archive()}
}

// Version identifies the buffer state this snapshot captured: it
// increments on every committed mutation of the buffer.
func (s *Snapshot) Version() uint64 { return s.version }

// Len returns the number of visible characters.
func (s *Snapshot) Len() int { return s.root.vcountOf() }

// TotalLen returns the number of character instances, tombstones included.
func (s *Snapshot) TotalLen() int { return s.root.sizeOf() }

// Head returns the first character instance in the chain (possibly a
// tombstone), or NilID for an empty snapshot.
func (s *Snapshot) Head() util.ID { return s.head }

// Walk visits every character instance in order (tombstones included)
// until fn returns false. The Char is the frozen record of this version.
func (s *Snapshot) Walk(fn func(ch *Char, visible bool) bool) {
	pwalk(s.root, func(n *pnode) bool { return fn(n.ch, n.visible) })
}

// WalkVisible visits visible characters in order until fn returns false.
func (s *Snapshot) WalkVisible(fn func(ch *Char) bool) {
	s.Walk(func(ch *Char, visible bool) bool {
		if !visible {
			return true
		}
		return fn(ch)
	})
}

// Text returns the visible text of the snapshot. The first call renders
// the text into a single pre-sized buffer; subsequent calls (and every
// other reader of this published version) share the rendered string.
func (s *Snapshot) Text() string {
	s.textOnce.Do(func() {
		buf := make([]byte, 0, s.Len())
		s.WalkVisible(func(ch *Char) bool {
			buf = utf8.AppendRune(buf, ch.Rune)
			return true
		})
		s.text = string(buf)
	})
	return s.text
}

// TextAt reconstructs the text as it was at instant t (time travel):
// characters created at or before t and not deleted at t, in chain order.
// For t at or after the snapshot instant this equals Text() modulo edits
// the snapshot never saw. When t predates the compaction horizon the walk
// transparently merges the archived cold tombstones back in.
func (s *Snapshot) TextAt(t time.Time) string {
	var sb strings.Builder
	if s.arch.visibleAt(t) {
		s.WalkAll(func(ch *Char, _ bool) bool {
			if !hiddenAt(ch, t) {
				sb.WriteRune(ch.Rune)
			}
			return true
		})
		return sb.String()
	}
	s.Walk(func(ch *Char, _ bool) bool {
		if !hiddenAt(ch, t) {
			sb.WriteRune(ch.Rune)
		}
		return true
	})
	return sb.String()
}

// Archive returns the snapshot's frozen cold-tombstone archive (never
// nil). Archived instances are excluded from Walk, TotalLen and AllChars;
// WalkAll and TextAt merge them back in.
func (s *Snapshot) Archive() *Archive {
	if s.arch == nil {
		return emptyArchive
	}
	return s.arch
}

// WithArchive returns a view of this snapshot with a as its cold
// archive, sharing the frozen tree. Core uses it to merge a lazily
// loaded archive into snapshots published while the archive was still on
// disk: such a snapshot's hot tree predates every later compaction pass,
// so the archive as first loaded is exactly its missing cold set.
func (s *Snapshot) WithArchive(a *Archive) *Snapshot {
	return &Snapshot{root: s.root, head: s.head, version: s.version, arch: a}
}

// WalkVisibleFrom visits up to n visible characters in order, starting
// with the one at position pos. A range reaching before the first or past
// the last character is clipped. The cost is O(log n + visited) wherever
// pos lies: the walk descends to pos by visible count instead of scanning
// from the head.
func (s *Snapshot) WalkVisibleFrom(pos, n int, fn func(ch *Char)) {
	if pos < 0 {
		n += pos
		pos = 0
	}
	if n <= 0 {
		return
	}
	pwalkVisibleFrom(s.root, pos, func(nd *pnode) bool {
		fn(nd.ch)
		n--
		return n > 0
	})
}

// Slice returns up to n visible characters starting at pos.
func (s *Snapshot) Slice(pos, n int) string {
	var sb strings.Builder
	s.WalkVisibleFrom(pos, n, func(ch *Char) { sb.WriteRune(ch.Rune) })
	return sb.String()
}

// CharAt returns the frozen record of the visible character at pos.
func (s *Snapshot) CharAt(pos int) (Char, bool) {
	n := s.root
	if pos < 0 || pos >= n.vcountOf() {
		return Char{}, false
	}
	k := pos
	for n != nil {
		lv := n.left.vcountOf()
		switch {
		case k < lv:
			n = n.left
		case k == lv && n.visible:
			return *n.ch, true
		default:
			k -= lv
			if n.visible {
				k--
			}
			n = n.right
		}
	}
	return Char{}, false
}

// IDAt returns the ID of the visible character at position pos.
func (s *Snapshot) IDAt(pos int) (util.ID, bool) {
	ch, ok := s.CharAt(pos)
	if !ok {
		return util.NilID, false
	}
	return ch.ID, true
}

// RangeIDs returns the IDs of visible characters in [pos, pos+n).
func (s *Snapshot) RangeIDs(pos, n int) []util.ID {
	var out []util.ID
	s.WalkVisibleFrom(pos, n, func(ch *Char) { out = append(out, ch.ID) })
	return out
}

// VisibleIDs returns the IDs of all visible characters in order.
func (s *Snapshot) VisibleIDs() []util.ID {
	out := make([]util.ID, 0, s.Len())
	s.WalkVisible(func(ch *Char) bool {
		out = append(out, ch.ID)
		return true
	})
	return out
}

// AllChars returns a copy of every character instance in chain order
// (tombstones included): the persistent form of this version.
func (s *Snapshot) AllChars() []Char {
	out := make([]Char, 0, s.TotalLen())
	s.Walk(func(ch *Char, _ bool) bool {
		out = append(out, *ch)
		return true
	})
	return out
}

// buildIndex materialises the rank-by-ID index on first use.
func (s *Snapshot) buildIndex() {
	s.once.Do(func() {
		idx := make(map[util.ID]snapEntry, s.TotalLen())
		vis := 0
		pwalk(s.root, func(n *pnode) bool {
			idx[n.id] = snapEntry{ch: n.ch, visRank: vis}
			if n.visible {
				vis++
			}
			return true
		})
		s.index = idx
	})
}

// Char returns the frozen record of the instance with id, hot or
// archived.
func (s *Snapshot) Char(id util.ID) (Char, bool) {
	s.buildIndex()
	if e, ok := s.index[id]; ok {
		return *e.ch, true
	}
	if ch, ok := s.Archive().Char(id); ok {
		return *ch, true
	}
	return Char{}, false
}

// Contains reports whether id exists in this snapshot, in the hot
// structures or the cold archive. Only instances the snapshot has never
// seen (inserted after it was taken) are unknown.
func (s *Snapshot) Contains(id util.ID) bool {
	s.buildIndex()
	if _, ok := s.index[id]; ok {
		return true
	}
	return s.Archive().Contains(id)
}

// RankOf returns the number of visible characters strictly before id, for
// any instance including tombstones — archived ones too: no visible
// character lives inside an archive run, so an archived tombstone's text
// resumes directly after its run's anchor (span anchors must keep
// resolving identically when compaction moves them to the archive). ok is
// false if id is unknown to this snapshot (e.g. it was inserted after the
// snapshot was taken).
func (s *Snapshot) RankOf(id util.ID) (int, bool) {
	s.buildIndex()
	if e, ok := s.index[id]; ok {
		return e.visRank, true
	}
	anchor, ok := s.Archive().AnchorOf(id)
	if !ok {
		return 0, false
	}
	if anchor.IsNil() {
		return 0, true
	}
	e, ok := s.index[anchor]
	if !ok {
		return 0, false
	}
	r := e.visRank
	if !e.ch.Deleted {
		r++
	}
	return r, true
}

// PosOf returns the 0-based visible position of id; ok is false for
// tombstones and unknown instances.
func (s *Snapshot) PosOf(id util.ID) (int, bool) {
	s.buildIndex()
	e, ok := s.index[id]
	if !ok || e.ch.Deleted {
		return 0, false
	}
	return e.visRank, true
}

// CheckInvariants verifies the snapshot's internal consistency: the order
// walk matches the frozen chain links, visibility flags agree with the
// character records, and the subtree counts are right. A snapshot taken
// at any commit boundary must always pass, no matter how many writers
// have since moved the live buffer on.
func (s *Snapshot) CheckInvariants() error {
	var prev *Char
	count, visible := 0, 0
	err := func() error {
		var walkErr error
		pwalk(s.root, func(n *pnode) bool {
			ch := n.ch
			if ch == nil {
				walkErr = fmt.Errorf("texttree: snapshot node %v without char", n.id)
				return false
			}
			if ch.ID != n.id {
				walkErr = fmt.Errorf("texttree: snapshot node %v holds char %v", n.id, ch.ID)
				return false
			}
			if n.visible != !ch.Deleted {
				walkErr = fmt.Errorf("texttree: snapshot visibility of %v disagrees with char state", n.id)
				return false
			}
			if prev == nil {
				if s.head != ch.ID {
					walkErr = fmt.Errorf("texttree: snapshot head %v but first instance %v", s.head, ch.ID)
					return false
				}
				if !ch.Prev.IsNil() {
					walkErr = fmt.Errorf("texttree: snapshot first instance %v has Prev %v", ch.ID, ch.Prev)
					return false
				}
			} else {
				if prev.Next != ch.ID || ch.Prev != prev.ID {
					walkErr = fmt.Errorf("texttree: snapshot chain torn between %v and %v", prev.ID, ch.ID)
					return false
				}
			}
			prev = ch
			count++
			if n.visible {
				visible++
			}
			return true
		})
		return walkErr
	}()
	if err != nil {
		return err
	}
	if count == 0 {
		if !s.head.IsNil() {
			return errors.New("texttree: empty snapshot with non-nil head")
		}
	} else if prev != nil && !prev.Next.IsNil() {
		return fmt.Errorf("texttree: snapshot last instance %v has Next %v", prev.ID, prev.Next)
	}
	if count != s.TotalLen() {
		return fmt.Errorf("texttree: snapshot walk saw %d of %d instances", count, s.TotalLen())
	}
	if visible != s.Len() {
		return fmt.Errorf("texttree: snapshot visible count %d vs %d", visible, s.Len())
	}
	return nil
}
