package texttree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tendax/internal/util"
)

// Char is one character instance: the unit of text in TeNDaX. Every field
// except visibility state is immutable after creation; deletion only marks
// the instance, keeping the chain stable for versioning and provenance.
type Char struct {
	ID      util.ID
	Rune    rune
	Author  string    // user who typed it
	Created time.Time // when it was committed

	Prev util.ID // neighbour links: the chain includes tombstones
	Next util.ID

	Deleted   bool
	DeletedBy string
	DeletedAt time.Time
	// Restored is set when a tombstone is undeleted: the pair
	// [DeletedAt, Restored) records the (most recent) interval during
	// which the character was invisible, so time travel inside the
	// interval still sees the deletion. Zero on never-undeleted chars.
	Restored time.Time

	// Copy-paste provenance: where this instance was copied from.
	SourceDoc  util.ID
	SourceChar util.ID
}

// ErrUnknownChar reports an operation on a character not in the buffer.
var ErrUnknownChar = errors.New("texttree: unknown character")

// Buffer is the in-memory working form of one document's text: the full
// character chain plus the order index. The database rows remain the source
// of truth; a Buffer can always be rebuilt from them with Load.
//
// Alongside the mutable index the buffer maintains a persistent
// (path-copying) mirror of the whole document, so Snapshot can hand out an
// immutable O(1) view at any time. Character records are copy-on-write:
// once a *Char has been reachable from a snapshot it is never mutated —
// updates replace the map entry and path-copy the mirror instead.
type Buffer struct {
	order *Order
	chars map[util.ID]*Char
	head  util.ID // first character instance in the chain (may be tombstone)

	proot   *pnode // persistent treap mirror (snapshot root)
	version uint64 // increments on every mutation

	// arch holds cold tombstones migrated out of the hot structures by
	// compaction (see archive.go). Immutable: replaced wholesale, so
	// published snapshots keep the version they captured.
	arch *Archive
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{order: NewOrder(), chars: make(map[util.ID]*Char), arch: emptyArchive}
}

// Version identifies the buffer's current state; it increments on every
// mutation and stamps the snapshots taken from it.
func (b *Buffer) Version() uint64 { return b.version }

// Load rebuilds the buffer from persisted character rows. The rows may be
// in any order; the chain is reassembled from the neighbour links.
func Load(rows []Char) (*Buffer, error) {
	b := NewBuffer()
	if len(rows) == 0 {
		return b, nil
	}
	for i := range rows {
		ch := rows[i]
		b.chars[ch.ID] = &ch
	}
	// Find the head: the unique char with no predecessor.
	var head *Char
	for _, ch := range b.chars {
		if ch.Prev.IsNil() {
			if head != nil {
				return nil, fmt.Errorf("texttree: chain has two heads: %v and %v", head.ID, ch.ID)
			}
			head = ch
		}
	}
	if head == nil {
		return nil, errors.New("texttree: chain has no head")
	}
	b.head = head.ID
	prev := util.NilID
	count := 0
	ordered := make([]*Char, 0, len(b.chars))
	for id := head.ID; !id.IsNil(); {
		ch := b.chars[id]
		if ch == nil {
			return nil, fmt.Errorf("texttree: chain references missing char %v", id)
		}
		count++
		if count > len(b.chars) {
			return nil, errors.New("texttree: chain has a cycle")
		}
		b.order.InsertAfter(prev, id, !ch.Deleted)
		ordered = append(ordered, ch)
		prev = id
		id = ch.Next
	}
	if count != len(b.chars) {
		return nil, fmt.Errorf("texttree: %d chars unreachable from head", len(b.chars)-count)
	}
	b.proot = pbuild(ordered)
	return b, nil
}

// Len returns the number of visible characters.
func (b *Buffer) Len() int { return b.order.VisibleLen() }

// TotalLen returns the number of character instances, tombstones included.
func (b *Buffer) TotalLen() int { return b.order.Len() }

// Char returns the character instance with id.
func (b *Buffer) Char(id util.ID) (*Char, bool) {
	c, ok := b.chars[id]
	return c, ok
}

// IDAt returns the ID of the visible character at position pos.
func (b *Buffer) IDAt(pos int) (util.ID, bool) { return b.order.VisibleAt(pos) }

// PosOf returns the 0-based visible position of id.
func (b *Buffer) PosOf(id util.ID) (int, bool) {
	if !b.order.Visible(id) {
		return 0, false
	}
	return b.order.VisibleRank(id)
}

// RankOf returns the number of visible characters strictly before id, for
// any instance including tombstones (a tombstone's rank is where its text
// would resume). ok is false if id is unknown.
func (b *Buffer) RankOf(id util.ID) (int, bool) { return b.order.VisibleRank(id) }

// PredecessorForInsert returns the character instance ID after which an
// insertion at visible position pos must be chained (NilID for pos 0).
func (b *Buffer) PredecessorForInsert(pos int) (util.ID, error) {
	if pos < 0 || pos > b.Len() {
		return util.NilID, fmt.Errorf("texttree: position %d out of range 0..%d", pos, b.Len())
	}
	if pos == 0 {
		return util.NilID, nil
	}
	id, ok := b.order.VisibleAt(pos - 1)
	if !ok {
		return util.NilID, fmt.Errorf("texttree: no visible char at %d", pos-1)
	}
	return id, nil
}

// InsertAfter chains ch immediately after prev (NilID = front of document)
// and returns the neighbour whose Prev link changed (the old successor), so
// the caller can persist both affected rows. ch.Prev/ch.Next are set here.
// On error the buffer is unchanged: all arguments are validated before the
// first mutation, so a failed insert can never leave a torn chain.
func (b *Buffer) InsertAfter(prev util.ID, ch Char) (updatedNext util.ID, err error) {
	if _, dup := b.chars[ch.ID]; dup {
		return util.NilID, fmt.Errorf("texttree: duplicate char %v", ch.ID)
	}
	var next util.ID
	if prev.IsNil() {
		next = b.head
	} else {
		p, ok := b.chars[prev]
		if !ok {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		next = p.Next
	}
	if !next.IsNil() {
		if _, ok := b.chars[next]; !ok {
			return util.NilID, fmt.Errorf("%w: successor %v", ErrUnknownChar, next)
		}
	}

	// Validated; now mutate. Neighbour records are copy-on-write so that
	// published snapshots keep their frozen chain links.
	if prev.IsNil() {
		b.head = ch.ID
	} else {
		np := *b.chars[prev]
		np.Next = ch.ID
		b.chars[prev] = &np
	}
	ch.Prev = prev
	ch.Next = next
	if !next.IsNil() {
		nn := *b.chars[next]
		nn.Prev = ch.ID
		b.chars[next] = &nn
	}
	c := ch
	b.chars[c.ID] = &c
	b.order.InsertAfter(prev, c.ID, !c.Deleted)

	// Mirror into the persistent treap: insert the new node at its total
	// rank and re-point the two rewritten neighbour records.
	r, _ := b.order.TotalRank(c.ID)
	b.proot = pinsert(b.proot, r, &pnode{id: c.ID, prio: prioFor(c.ID), visible: !c.Deleted, ch: &c})
	if !prev.IsNil() {
		pr, _ := b.order.TotalRank(prev)
		b.proot = pset(b.proot, pr, b.chars[prev], b.order.Visible(prev))
	}
	if !next.IsNil() {
		nr, _ := b.order.TotalRank(next)
		b.proot = pset(b.proot, nr, b.chars[next], b.order.Visible(next))
	}
	b.version++
	return next, nil
}

// InsertRun chains a run of characters, in order, immediately after prev
// (NilID = front of document) and returns the neighbour whose Prev link
// changed. It is InsertAfter batched: one contiguous insertion pays ONE
// persistent-treap splice (split at the run's start rank, O(len) build of
// the run, merge, two neighbour rewrites) instead of a root-to-leaf path
// copy per character — the dominant allocation source of per-character
// insertion. The run is copied into an internal block, so the caller's
// slice is reusable immediately. On error the buffer is unchanged.
func (b *Buffer) InsertRun(prev util.ID, run []Char) (updatedNext util.ID, err error) {
	if len(run) == 0 {
		return b.ChainSuccessor(prev), nil
	}
	if len(run) == 1 {
		return b.InsertAfter(prev, run[0])
	}
	seen := make(map[util.ID]struct{}, len(run))
	for i := range run {
		id := run[i].ID
		if _, dup := b.chars[id]; dup {
			return util.NilID, fmt.Errorf("texttree: duplicate char %v", id)
		}
		if _, dup := seen[id]; dup {
			return util.NilID, fmt.Errorf("texttree: duplicate char %v within run", id)
		}
		seen[id] = struct{}{}
	}
	var next util.ID
	if prev.IsNil() {
		next = b.head
	} else {
		p, ok := b.chars[prev]
		if !ok {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		next = p.Next
	}
	if !next.IsNil() {
		if _, ok := b.chars[next]; !ok {
			return util.NilID, fmt.Errorf("%w: successor %v", ErrUnknownChar, next)
		}
	}

	// Validated; now mutate. One block holds every record of the run (the
	// records are copy-on-write from here on, same as InsertAfter's).
	block := make([]Char, len(run))
	copy(block, run)
	for i := range block {
		if i == 0 {
			block[i].Prev = prev
		} else {
			block[i].Prev = block[i-1].ID
		}
		if i == len(block)-1 {
			block[i].Next = next
		} else {
			block[i].Next = block[i+1].ID
		}
	}
	if prev.IsNil() {
		b.head = block[0].ID
	} else {
		np := *b.chars[prev]
		np.Next = block[0].ID
		b.chars[prev] = &np
	}
	if !next.IsNil() {
		nn := *b.chars[next]
		nn.Prev = block[len(block)-1].ID
		b.chars[next] = &nn
	}
	at := prev
	for i := range block {
		c := &block[i]
		b.chars[c.ID] = c
		b.order.InsertAfter(at, c.ID, !c.Deleted)
		at = c.ID
	}

	// Mirror the whole run into the persistent treap with one splice.
	r, _ := b.order.TotalRank(block[0].ID)
	ptrs := make([]*Char, len(block))
	for i := range block {
		ptrs[i] = &block[i]
	}
	l, rest := psplit(b.proot, r)
	b.proot = pmerge(pmerge(l, pbuild(ptrs)), rest)
	if !prev.IsNil() {
		pr, _ := b.order.TotalRank(prev)
		b.proot = pset(b.proot, pr, b.chars[prev], b.order.Visible(prev))
	}
	if !next.IsNil() {
		nr, _ := b.order.TotalRank(next)
		b.proot = pset(b.proot, nr, b.chars[next], b.order.Visible(next))
	}
	b.version++
	return next, nil
}

// Delete tombstones id (logical deletion). The chain is untouched.
func (b *Buffer) Delete(id util.ID, by string, at time.Time) error {
	ch, ok := b.chars[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownChar, id)
	}
	if ch.Deleted {
		return nil
	}
	nc := *ch
	nc.Deleted = true
	nc.DeletedBy = by
	nc.DeletedAt = at
	nc.Restored = time.Time{}
	b.chars[id] = &nc
	b.order.SetVisible(id, false)
	r, _ := b.order.TotalRank(id)
	b.proot = pset(b.proot, r, &nc, false)
	b.version++
	return nil
}

// Undelete makes a tombstoned character visible again at instant at (undo
// of a delete). The deletion metadata is kept, not zeroed: the recorded
// interval [DeletedAt, at) is what lets TextAt inside the interval still
// see the deletion — zeroing DeletedAt (as this method once did) made an
// undeleted character look never-deleted to time travel.
func (b *Buffer) Undelete(id util.ID, at time.Time) error {
	ch, ok := b.chars[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownChar, id)
	}
	if !ch.Deleted {
		return nil
	}
	nc := *ch
	nc.Deleted = false
	nc.Restored = at
	b.chars[id] = &nc
	b.order.SetVisible(id, true)
	r, _ := b.order.TotalRank(id)
	b.proot = pset(b.proot, r, &nc, true)
	b.version++
	return nil
}

// ChainSuccessor returns the instance immediately after prev in the chain
// (tombstones included); prev == NilID returns the chain head. It reports
// the instance whose Prev link an insertion after prev must rewrite.
func (b *Buffer) ChainSuccessor(prev util.ID) util.ID {
	if prev.IsNil() {
		return b.head
	}
	if ch, ok := b.chars[prev]; ok {
		return ch.Next
	}
	return util.NilID
}

// Head returns the first character instance in the chain (may be a
// tombstone), or NilID for an empty buffer.
func (b *Buffer) Head() util.ID { return b.head }

// Text returns the visible text.
func (b *Buffer) Text() string {
	var sb strings.Builder
	sb.Grow(b.Len())
	b.order.WalkVisible(func(id util.ID) bool {
		sb.WriteRune(b.chars[id].Rune)
		return true
	})
	return sb.String()
}

// Slice returns up to n visible characters starting at pos.
func (b *Buffer) Slice(pos, n int) string {
	var sb strings.Builder
	b.order.WalkVisibleFrom(pos, n, func(id util.ID) { sb.WriteRune(b.chars[id].Rune) })
	return sb.String()
}

// VisibleIDs returns the IDs of all visible characters in order.
func (b *Buffer) VisibleIDs() []util.ID {
	out := make([]util.ID, 0, b.Len())
	b.order.WalkVisible(func(id util.ID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// RangeIDs returns the IDs of visible characters in [pos, pos+n).
func (b *Buffer) RangeIDs(pos, n int) []util.ID {
	var out []util.ID
	b.order.WalkVisibleFrom(pos, n, func(id util.ID) { out = append(out, id) })
	return out
}

// TextAt reconstructs the document text as it was at instant t: characters
// created at or before t and not deleted at t, in chain order. This is the
// TeNDaX versioning primitive — tombstones make time travel a pure filter
// over the stable chain. When t predates the compaction horizon the walk
// transparently merges the cold-tombstone archive back in; at or after the
// newest archived deletion the filter runs over the hot structures alone.
func (b *Buffer) TextAt(t time.Time) string {
	var sb strings.Builder
	if b.Archive().visibleAt(t) {
		walkMerged(b.arch, b.proot, func(ch *Char, _ bool) bool {
			if !hiddenAt(ch, t) {
				sb.WriteRune(ch.Rune)
			}
			return true
		})
		return sb.String()
	}
	b.order.Walk(func(id util.ID, _ bool) bool {
		if ch := b.chars[id]; !hiddenAt(ch, t) {
			sb.WriteRune(ch.Rune)
		}
		return true
	})
	return sb.String()
}

// AllChars returns a copy of every hot character instance, in chain order
// (warm tombstones included, archived instances excluded): the persistent
// form of the document's hot set. The archive persists separately.
func (b *Buffer) AllChars() []Char {
	out := make([]Char, 0, b.TotalLen())
	b.order.Walk(func(id util.ID, _ bool) bool {
		out = append(out, *b.chars[id])
		return true
	})
	return out
}

// Authors returns the distinct authors of visible characters, sorted.
func (b *Buffer) Authors() []string {
	set := map[string]bool{}
	b.order.WalkVisible(func(id util.ID) bool {
		set[b.chars[id].Author] = true
		return true
	})
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// CheckInvariants verifies the structural invariants of the buffer: the
// chain is a single path covering all chars, order matches the chain, and
// visible counts agree. Used by tests and failure injection.
func (b *Buffer) CheckInvariants() error {
	if err := b.Archive().CheckInvariants(); err != nil {
		return err
	}
	for id := range b.chars {
		if b.Archive().Contains(id) {
			return fmt.Errorf("texttree: %v is both hot and archived", id)
		}
	}
	for _, anchor := range b.Archive().Anchors() {
		if !anchor.IsNil() {
			if _, ok := b.chars[anchor]; !ok {
				return fmt.Errorf("texttree: archive run anchored at non-hot %v", anchor)
			}
		}
	}
	if len(b.chars) == 0 {
		if b.order.Len() != 0 {
			return errors.New("texttree: empty chars but non-empty order")
		}
		if b.proot.sizeOf() != 0 {
			return errors.New("texttree: empty chars but non-empty snapshot mirror")
		}
		return nil
	}
	var chain []util.ID
	seen := map[util.ID]bool{}
	for id := b.head; !id.IsNil(); {
		if seen[id] {
			return fmt.Errorf("texttree: cycle at %v", id)
		}
		seen[id] = true
		chain = append(chain, id)
		ch := b.chars[id]
		if ch == nil {
			return fmt.Errorf("texttree: chain references missing %v", id)
		}
		if !ch.Next.IsNil() {
			n := b.chars[ch.Next]
			if n == nil {
				return fmt.Errorf("texttree: %v.Next missing", id)
			}
			if n.Prev != id {
				return fmt.Errorf("texttree: broken back-link at %v", ch.Next)
			}
		}
		id = ch.Next
	}
	if len(chain) != len(b.chars) {
		return fmt.Errorf("texttree: chain covers %d of %d chars", len(chain), len(b.chars))
	}
	var inOrder []util.ID
	visible := 0
	b.order.Walk(func(id util.ID, vis bool) bool {
		inOrder = append(inOrder, id)
		if vis != !b.chars[id].Deleted {
			inOrder = nil
			return false
		}
		if vis {
			visible++
		}
		return true
	})
	if inOrder == nil {
		return errors.New("texttree: order visibility disagrees with char state")
	}
	if len(inOrder) != len(chain) {
		return fmt.Errorf("texttree: order has %d nodes, chain %d", len(inOrder), len(chain))
	}
	for i := range chain {
		if chain[i] != inOrder[i] {
			return fmt.Errorf("texttree: order/chain disagree at %d: %v vs %v", i, inOrder[i], chain[i])
		}
	}
	if visible != b.order.VisibleLen() {
		return fmt.Errorf("texttree: visible count %d vs %d", visible, b.order.VisibleLen())
	}
	// The persistent mirror must agree with the mutable structures exactly:
	// a divergence here means snapshots are lying about the document.
	snap := b.Snapshot()
	if err := snap.CheckInvariants(); err != nil {
		return fmt.Errorf("texttree: snapshot mirror: %w", err)
	}
	if snap.TotalLen() != b.TotalLen() || snap.Len() != b.Len() {
		return fmt.Errorf("texttree: snapshot mirror counts %d/%d vs %d/%d",
			snap.TotalLen(), snap.Len(), b.TotalLen(), b.Len())
	}
	if got, want := snap.Text(), b.Text(); got != want {
		return fmt.Errorf("texttree: snapshot mirror text diverged:\n mirror %q\n live   %q",
			clip(got, 60), clip(want, 60))
	}
	return nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
