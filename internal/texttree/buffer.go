package texttree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"tendax/internal/util"
)

// Char is one character instance: the unit of text in TeNDaX. Every field
// except visibility state is immutable after creation; deletion only marks
// the instance, keeping its place for versioning and provenance.
type Char struct {
	ID      util.ID
	Rune    rune
	Author  string    // user who typed it
	Created time.Time // when it was committed
	// After is the instance this one was typed after (NilID = the front of
	// the document) and Key its order among the instances typed after the
	// same one: document order is the pre-order walk of this anchor tree
	// from NilID, children in descending Key (see anchorOrder). A fresh
	// instance's Key is its own ID. Neither changes once the instance
	// exists, except that compaction re-anchors an instance whose After it
	// archives (archive.go).
	After util.ID
	Key   util.ID

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
// character record, held once, and two trees over the document order. The
// database rows remain the source of truth; a Buffer can always be rebuilt
// from them with Load.
//
// The order treap is the ID index: its nodes hold the records and it
// answers the total rank of an ID. The mirror in the embedded view, a
// persistent B+-tree whose leaves hold up to leafCap records, answers every
// positional read, for the buffer as for its snapshots, and lets Snapshot
// hand out an immutable O(1) view at any time. Records are copy-on-write:
// a *Char is never mutated once it is in the buffer — an update swaps a
// copy into the order node and the mirror instead. Mirror nodes are
// copy-on-write per generation: a write copies a node made before the last
// Snapshot (which may be reachable from it) and updates in place a node it
// or an earlier write of the same generation made (which no snapshot can
// reach).
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
// in any order; document order is derived from their anchors.
func Load(rows []Char) (*Buffer, error) {
	b := NewBuffer()
	recs := make([]*Char, len(rows))
	for i := range rows {
		ch := rows[i]
		b.order.add(&ch)
		recs[i] = &ch
	}
	if len(b.order.nodes) != len(recs) {
		return nil, fmt.Errorf("texttree: %d rows hold %d distinct chars", len(recs), len(b.order.nodes))
	}
	ordered, err := anchorOrder(recs)
	if err != nil {
		return nil, err
	}
	prev := util.NilID
	for _, ch := range ordered {
		b.order.link(prev, b.order.nodes[ch.ID])
		prev = ch.ID
	}
	b.root = insert(b.gen, nil, 0, len(ordered), func(i int) *Char { return ordered[i] })
	return b, nil
}

// anchorOrder returns recs, one record per instance, in document order:
// the pre-order walk of the anchor tree from NilID, visiting the instances
// typed after one instance in descending Key. The server mints ascending
// IDs and a fresh instance's Key is its ID, so an insert becomes its
// anchor's first child and the walk puts it right after the anchor —
// exactly where the paper's doubly linked list splices it. The walk is
// iterative: typed text is a chain of anchors as deep as it is long. It
// fails on two siblings with one Key, a missing anchor, and a record the
// walk never reaches (an anchor cycle).
func anchorOrder(recs []*Char) ([]*Char, error) {
	// Siblings sit side by side, by descending Key, in kids.
	type kid struct {
		after, key util.ID
		ch         *Char
	}
	kids := make([]kid, len(recs))
	for i, ch := range recs {
		kids[i] = kid{ch.After, ch.Key, ch}
	}
	slices.SortFunc(kids, func(a, b kid) int {
		if a.after != b.after {
			return cmp.Compare(a.after, b.after)
		}
		return cmp.Compare(b.key, a.key)
	})
	for i := 1; i < len(kids); i++ {
		if k := kids[i]; kids[i-1].after == k.after && kids[i-1].key == k.key {
			return nil, fmt.Errorf("texttree: %v and %v share key %v after %v", kids[i-1].ch.ID, k.ch.ID, k.key, k.after)
		}
	}
	// push stacks the children of id so that the highest Key pops first.
	var stack []*Char
	push := func(id util.ID) {
		lo, hi := 0, len(kids)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); kids[m].after < id {
				lo = m + 1
			} else {
				hi = m
			}
		}
		end := lo
		for end < len(kids) && kids[end].after == id {
			end++
		}
		for end--; end >= lo; end-- {
			stack = append(stack, kids[end].ch)
		}
	}
	out := make([]*Char, 0, len(kids))
	for push(util.NilID); len(stack) > 0; {
		ch := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, ch)
		push(ch.ID)
	}
	if len(out) == len(kids) {
		return out, nil
	}
	ids := make(map[util.ID]bool, len(recs))
	for _, ch := range recs {
		ids[ch.ID] = true
	}
	for _, ch := range recs {
		if !ch.After.IsNil() && !ids[ch.After] {
			return nil, fmt.Errorf("texttree: %v is anchored at missing char %v", ch.ID, ch.After)
		}
	}
	return nil, fmt.Errorf("texttree: %d chars unreachable from the front", len(kids)-len(out))
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
	return visibleBefore(b.root, r), true
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
// insertion at visible position pos must follow (NilID for pos 0).
func (b *Buffer) PredecessorForInsert(pos int) (util.ID, error) {
	if pos < 0 || pos > b.Len() {
		return util.NilID, fmt.Errorf("texttree: position %d out of range 0..%d", pos, b.Len())
	}
	id, _ := b.IDAt(pos - 1) // NilID for pos 0
	return id, nil
}

// InsertAfter inserts ch immediately after prev (NilID = front of
// document); see InsertRun.
func (b *Buffer) InsertAfter(prev util.ID, ch Char) (next util.ID, err error) {
	return b.InsertRun(prev, []Char{ch})
}

// InsertRun inserts a run of characters, in order, immediately after prev
// (NilID = front of document) and returns the instance after the run
// (NilID at the end). It sets each record's After — prev for the first,
// its predecessor in the run for the rest — and a zero Key becomes the
// record's own ID; no other record changes. The run must land in front of
// what prev was typed before: its first Key must exceed the Key of prev's
// current first child. One contiguous insertion descends the mirror once,
// to the leaf at the run's start rank, and splices the whole run there:
// the leaf is cut into balanced leaves if the run overflows it, and each
// inner node above takes the new leaves or splits in turn. Only that one
// root-to-leaf path is copied, however long the run. The run is copied
// into an internal block, so the caller's slice is reusable immediately.
// On error the buffer is unchanged.
func (b *Buffer) InsertRun(prev util.ID, run []Char) (next util.ID, err error) {
	r := 0
	if !prev.IsNil() {
		pr, ok := b.order.totalRank(prev)
		if !ok {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		r = pr + 1
	}
	succ := b.order.at(r)
	if succ != nil {
		next = succ.ID
	}
	if len(run) == 0 {
		return next, nil
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

	if key := keyOf(&run[0]); succ != nil && succ.After == prev && key <= succ.Key {
		return util.NilID, fmt.Errorf("texttree: key %v of %v does not precede key %v of %v after %v",
			key, run[0].ID, succ.Key, succ.ID, prev)
	}

	// Validated; now mutate. One block holds every record of the run (the
	// records are copy-on-write from here on).
	block := make([]Char, len(run))
	copy(block, run)
	at := prev
	for i := range block {
		c := &block[i]
		c.After, c.Key = at, keyOf(c)
		b.order.insertAfter(at, c)
		at = c.ID
	}
	b.root = insert(b.gen, b.root, r, len(block), func(i int) *Char { return &block[i] })
	b.version++
	return next, nil
}

// keyOf returns the Key an inserted record gets: its own, or its ID if
// it has none.
func keyOf(c *Char) util.ID {
	if c.Key.IsNil() {
		return c.ID
	}
	return c.Key
}

// update installs ch, a fresh copy of the record of ch.ID, in the order
// node and, path-copied, in the mirror.
func (b *Buffer) update(ch *Char) { b.root = set(b.gen, b.root, b.order.swap(ch), ch) }

// Delete tombstones id (logical deletion). Its place is untouched.
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

// CheckInvariants verifies the structural invariants of the buffer: the
// order tree ranks each instance at the position its anchors derive, and
// the mirror holds the same records in the same order with consistent
// counts. Used by tests and failure injection.
func (b *Buffer) CheckInvariants() error {
	arch := b.Archive()
	if err := arch.CheckInvariants(); err != nil {
		return err
	}
	for id, n := range b.order.nodes {
		if n.ch.ID != id {
			return fmt.Errorf("texttree: order node %v holds record %v", id, n.ch.ID)
		}
		if arch.Contains(id) {
			return fmt.Errorf("texttree: %v is both hot and archived", id)
		}
	}
	for _, anchor := range arch.Anchors() {
		if !anchor.IsNil() && b.order.get(anchor) == nil {
			return fmt.Errorf("texttree: archive run anchored at non-hot %v", anchor)
		}
	}
	// Anchor position i must be total rank i: the one check of the order
	// tree that does not go through the mirror.
	recs := make([]*Char, 0, len(b.order.nodes))
	for _, n := range b.order.nodes {
		recs = append(recs, n.ch)
	}
	ordered, err := anchorOrder(recs)
	if err != nil {
		return err
	}
	for i, ch := range ordered {
		if r, _ := b.order.totalRank(ch.ID); r != i {
			return fmt.Errorf("texttree: %v is anchor position %d but order rank %d", ch.ID, i, r)
		}
	}
	// The mirror must hold exactly the order's records: a divergence here
	// means positional reads and snapshots are lying about the document.
	// The live view is read as is: Snapshot would end the generation, and
	// a check must not change which writes copy nodes.
	snap := &Snapshot{view: b.view}
	if err := snap.CheckInvariants(); err != nil {
		return fmt.Errorf("texttree: snapshot mirror: %w", err)
	}
	if snap.TotalLen() != len(ordered) {
		return fmt.Errorf("texttree: mirror holds %d of %d instances", snap.TotalLen(), len(ordered))
	}
	i := 0
	snap.Walk(func(ch *Char, _ bool) bool {
		if ordered[i] != ch {
			err = fmt.Errorf("texttree: mirror holds %v at %d, the anchors put %v there", ch.ID, i, ordered[i].ID)
		}
		i++
		return err == nil
	})
	return err
}
