package texttree

import (
	"errors"
	"fmt"
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

// Buffer is the in-memory working form of one document's text: every hot
// character record, held once, and two trees over the chain. The database
// rows remain the source of truth; a Buffer can always be rebuilt from
// them with Load.
//
// The order treap is the ID index: its nodes hold the records and it
// answers the total rank of an ID. The persistent (path-copying) mirror in
// the embedded view answers every positional read, for the buffer as for
// its snapshots, and lets Snapshot hand out an immutable O(1) view at any
// time. Records are copy-on-write: a *Char is never mutated once it is in
// the buffer — an update swaps a copy into the order node and the mirror
// instead. Mirror nodes are copy-on-write per generation: a write copies a
// node made before the last Snapshot (which may be reachable from it) and
// updates in place a node it or an earlier write of the same generation
// made (which no snapshot can reach).
type Buffer struct {
	view
	order order
	gen   uint64 // the mirror generation writes make nodes in; Snapshot ends it
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{view: view{arch: emptyArchive}, order: order{nodes: make(map[util.ID]*onode)}}
}

// Load rebuilds the buffer from persisted character rows. The rows may be
// in any order; the chain is reassembled from the neighbour links.
func Load(rows []Char) (*Buffer, error) {
	b := NewBuffer()
	if len(rows) == 0 {
		return b, nil
	}
	for i := range rows {
		ch := rows[i]
		b.order.add(&ch)
	}
	// Find the head: the unique char with no predecessor.
	var head *Char
	for _, n := range b.order.nodes {
		if n.ch.Prev.IsNil() {
			if head != nil {
				return nil, fmt.Errorf("texttree: chain has two heads: %v and %v", head.ID, n.ch.ID)
			}
			head = n.ch
		}
	}
	if head == nil {
		return nil, errors.New("texttree: chain has no head")
	}
	b.head = head.ID
	prev := util.NilID
	ordered := make([]*Char, 0, len(b.order.nodes))
	for id := head.ID; !id.IsNil(); {
		n := b.order.nodes[id]
		if n == nil {
			return nil, fmt.Errorf("texttree: chain references missing char %v", id)
		}
		if len(ordered) == len(b.order.nodes) {
			return nil, errors.New("texttree: chain has a cycle")
		}
		b.order.link(prev, n)
		ordered = append(ordered, n.ch)
		prev = id
		id = n.ch.Next
	}
	if len(ordered) != len(b.order.nodes) {
		return nil, fmt.Errorf("texttree: %d chars unreachable from head", len(b.order.nodes)-len(ordered))
	}
	b.root = pbuild(b.gen, len(ordered), func(i int) *Char { return ordered[i] })
	return b, nil
}

// Char returns the character instance with id. The record is shared with
// the buffer and its snapshots and must not be mutated.
func (b *Buffer) Char(id util.ID) (*Char, bool) {
	c := b.order.get(id)
	return c, c != nil
}

// RankOf returns the number of visible characters strictly before id, for
// any instance including tombstones (a tombstone's rank is where its text
// would resume). ok is false if id is unknown.
func (b *Buffer) RankOf(id util.ID) (int, bool) {
	r, ok := b.order.totalRank(id)
	if !ok {
		return 0, false
	}
	return pvisibleBefore(b.root, r), true
}

// PosOf returns the 0-based visible position of id; ok is false for
// tombstones and unknown instances.
func (b *Buffer) PosOf(id util.ID) (int, bool) {
	if ch := b.order.get(id); ch == nil || ch.Deleted {
		return 0, false
	}
	return b.RankOf(id)
}

// PredecessorForInsert returns the character instance ID after which an
// insertion at visible position pos must be chained (NilID for pos 0).
func (b *Buffer) PredecessorForInsert(pos int) (util.ID, error) {
	if pos < 0 || pos > b.Len() {
		return util.NilID, fmt.Errorf("texttree: position %d out of range 0..%d", pos, b.Len())
	}
	id, _ := b.IDAt(pos - 1) // NilID for pos 0
	return id, nil
}

// InsertAfter chains ch immediately after prev (NilID = front of document)
// and returns the neighbour whose Prev link changed (the old successor), so
// the caller can persist both affected rows. ch.Prev/ch.Next are set here.
// On error the buffer is unchanged: all arguments are validated before the
// first mutation, so a failed insert can never leave a torn chain.
func (b *Buffer) InsertAfter(prev util.ID, ch Char) (updatedNext util.ID, err error) {
	return b.InsertRun(prev, []Char{ch})
}

// InsertRun chains a run of characters, in order, immediately after prev
// (NilID = front of document) and returns the neighbour whose Prev link
// changed. One contiguous insertion pays ONE persistent-treap splice
// (split at the run's start rank, O(len) build of the run, merge, two
// neighbour rewrites) instead of a root-to-leaf path copy per character.
// The run is copied into an internal block, so the caller's slice is
// reusable immediately. On error the buffer is unchanged.
func (b *Buffer) InsertRun(prev util.ID, run []Char) (updatedNext util.ID, err error) {
	if len(run) == 0 {
		return b.ChainSuccessor(prev), nil
	}
	seen := make(map[util.ID]struct{}, len(run))
	for i := range run {
		id := run[i].ID
		if b.order.get(id) != nil {
			return util.NilID, fmt.Errorf("texttree: duplicate char %v", id)
		}
		if _, dup := seen[id]; dup {
			return util.NilID, fmt.Errorf("texttree: duplicate char %v within run", id)
		}
		seen[id] = struct{}{}
	}
	next := b.head
	if !prev.IsNil() {
		p := b.order.get(prev)
		if p == nil {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		next = p.Next
	}
	if !next.IsNil() && b.order.get(next) == nil {
		return util.NilID, fmt.Errorf("%w: successor %v", ErrUnknownChar, next)
	}

	// Validated; now mutate. One block holds every record of the run (the
	// records are copy-on-write from here on).
	block := make([]Char, len(run))
	copy(block, run)
	at := prev
	for i := range block {
		c := &block[i]
		c.Prev, c.Next = at, next
		if i+1 < len(block) {
			c.Next = block[i+1].ID
		}
		b.order.insertAfter(at, c)
		at = c.ID
	}
	r, _ := b.order.totalRank(block[0].ID)
	l, rest := psplit(b.gen, b.root, r)
	mid := pbuild(b.gen, len(block), func(i int) *Char { return &block[i] })
	b.root = pmerge(b.gen, pmerge(b.gen, l, mid), rest)

	// Re-link the neighbours copy-on-write, so that published snapshots
	// keep their frozen chain links. Their mirror paths mostly run through
	// the nodes the splice just made, which are updated in place.
	if prev.IsNil() {
		b.head = block[0].ID
	} else {
		np := *b.order.get(prev)
		np.Next = block[0].ID
		b.update(&np)
	}
	if !next.IsNil() {
		nn := *b.order.get(next)
		nn.Prev = at
		b.update(&nn)
	}
	b.version++
	return next, nil
}

// update installs ch, a fresh copy of the record of ch.ID, in the order
// node and, path-copied, in the mirror.
func (b *Buffer) update(ch *Char) { b.root = pset(b.gen, b.root, b.order.swap(ch), ch) }

// Delete tombstones id (logical deletion). The chain is untouched.
func (b *Buffer) Delete(id util.ID, by string, at time.Time) error {
	ch := b.order.get(id)
	if ch == nil {
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
	b.update(&nc)
	b.version++
	return nil
}

// Undelete makes a tombstoned character visible again at instant at (undo
// of a delete). The deletion metadata is kept, not zeroed: the recorded
// interval [DeletedAt, at) is what lets TextAt inside the interval still
// see the deletion — zeroing DeletedAt (as this method once did) made an
// undeleted character look never-deleted to time travel.
func (b *Buffer) Undelete(id util.ID, at time.Time) error {
	ch := b.order.get(id)
	if ch == nil {
		return fmt.Errorf("%w: %v", ErrUnknownChar, id)
	}
	if !ch.Deleted {
		return nil
	}
	nc := *ch
	nc.Deleted = false
	nc.Restored = at
	b.update(&nc)
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
	if ch := b.order.get(prev); ch != nil {
		return ch.Next
	}
	return util.NilID
}

// CheckInvariants verifies the structural invariants of the buffer: the
// chain is a single path covering every hot instance, the order tree
// ranks each instance at its chain position, and the mirror holds the
// same records in the same order with consistent counts. Used by tests
// and failure injection.
func (b *Buffer) CheckInvariants() error {
	arch := b.Archive()
	if err := arch.CheckInvariants(); err != nil {
		return err
	}
	for id := range b.order.nodes {
		if arch.Contains(id) {
			return fmt.Errorf("texttree: %v is both hot and archived", id)
		}
	}
	for _, anchor := range arch.Anchors() {
		if !anchor.IsNil() && b.order.get(anchor) == nil {
			return fmt.Errorf("texttree: archive run anchored at non-hot %v", anchor)
		}
	}
	// Walk the chain by its links. Chain position i must be total rank i:
	// the one check of the order tree that does not go through the mirror
	// (a cycle fails it too, as no rank reaches the node count).
	i := 0
	for id := b.head; !id.IsNil(); i++ {
		ch := b.order.get(id)
		if ch == nil {
			return fmt.Errorf("texttree: chain references missing %v", id)
		}
		if ch.ID != id {
			return fmt.Errorf("texttree: order node %v holds record %v", id, ch.ID)
		}
		if r, _ := b.order.totalRank(id); r != i {
			return fmt.Errorf("texttree: %v is chain position %d but order rank %d", id, i, r)
		}
		if !ch.Next.IsNil() {
			n := b.order.get(ch.Next)
			if n == nil {
				return fmt.Errorf("texttree: %v.Next missing", id)
			}
			if n.Prev != id {
				return fmt.Errorf("texttree: broken back-link at %v", ch.Next)
			}
		}
		id = ch.Next
	}
	if i != len(b.order.nodes) {
		return fmt.Errorf("texttree: chain covers %d of %d chars", i, len(b.order.nodes))
	}
	// The mirror must hold exactly the order's records: a divergence here
	// means positional reads and snapshots are lying about the document.
	// The live view is read as is: Snapshot would end the generation, and
	// a check must not change which writes copy nodes.
	snap := &Snapshot{view: b.view}
	if err := snap.CheckInvariants(); err != nil {
		return fmt.Errorf("texttree: snapshot mirror: %w", err)
	}
	if snap.TotalLen() != i {
		return fmt.Errorf("texttree: mirror holds %d of %d instances", snap.TotalLen(), i)
	}
	var err error
	snap.Walk(func(ch *Char, _ bool) bool {
		if b.order.get(ch.ID) != ch {
			err = fmt.Errorf("texttree: mirror record of %v is not the order's", ch.ID)
		}
		return err == nil
	})
	return err
}
