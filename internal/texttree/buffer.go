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

// Buffer is the in-memory working form of one document's text: one record
// per run of hot instances (run.go) and two trees over the document order.
// The database rows remain the source of truth; a Buffer can always be
// rebuilt from them with Load.
//
// The order treap is the ID index: its nodes are ID extents, and it
// answers the total rank of an ID. The mirror in the embedded view, a
// persistent B+-tree whose leaves hold up to leafCap slots, each naming a
// record and an offset in it, answers every positional read, for the
// buffer as for its snapshots, and lets Snapshot hand out an immutable
// O(1) view at any time. Records are copy-on-write: a record is never
// mutated once a slot names it — an edit points the slots it changes at a
// new record instead. Mirror nodes are copy-on-write per generation: a
// write copies a node made before the last Snapshot (which may be
// reachable from it) and updates in place a node it or an earlier write of
// the same generation made (which no snapshot can reach).
type Buffer struct {
	view
	order order
	gen   uint64 // the mirror generation writes make nodes in; Snapshot ends it
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{view: view{arch: emptyArchive}}
}

// Load rebuilds the buffer from persisted character rows. The rows may be
// in any order; document order is derived from their anchors, and the
// instances of one typed run, in that order, share one record again.
func Load(rows []Char) (*Buffer, error) {
	recs := make([]*Char, len(rows))
	for i := range rows {
		recs[i] = &rows[i]
	}
	ordered, err := anchorOrder(recs)
	if err != nil {
		return nil, err
	}
	b := NewBuffer()
	c := runCursor{recs: newRuns(len(ordered), func(i int) *Char { return ordered[i] },
		func(i int) bool { return ordered[i].After == ordered[i-1].ID && ordered[i].Key == ordered[i].ID },
		func(lo int) (util.ID, util.ID) { return ordered[lo].After, ordered[lo].Key })}
	var t *extent
	for i := range c.recs {
		r := &c.recs[i]
		if t, err = b.order.add(t, r.first, r.step, r.len()); err != nil {
			return nil, err
		}
	}
	b.root = insert(b.gen, nil, 0, len(ordered), c.at)
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
	for push(util.NilID); len(stack) > 0 && len(out) < len(kids); {
		ch := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, ch)
		push(ch.ID)
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("texttree: the anchor walk meets an instance twice")
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

// Char returns the character instance with id.
func (b *Buffer) Char(id util.ID) (Char, bool) {
	r, ok := b.order.totalRank(id)
	if !ok {
		return Char{}, false
	}
	var c Char
	s := slotAt(b.root, r)
	s.r.fill(&c, s.i)
	return c, true
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
	r, ok := b.order.totalRank(id)
	if !ok || slotAt(b.root, r).r.deleted() {
		return 0, false
	}
	return visibleBefore(b.root, r), true
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

// InsertRun inserts a run of characters, in order, immediately after prev
// (NilID = front of document) and returns the instance after the run
// (NilID at the end). Each instance's After is set — prev for the first,
// its predecessor in the run for the rest — and a zero Key becomes the
// instance's own ID; no other instance changes. The run must land in front
// of what prev was typed before: its first Key must exceed the Key of
// prev's current first child. The run is stored as few records as it can
// be cut into (cutRuns): one for text typed or pasted in one go. One
// contiguous insertion descends the mirror once, to the leaf at the run's
// start rank, and splices the whole run there: the leaf is cut into
// balanced leaves if the run overflows it, and each inner node above takes
// the new leaves or splits in turn. Only that one root-to-leaf path is
// copied, however long the run. The buffer copies what it keeps of the
// run, so the caller's slice is reusable immediately. On error the buffer
// is unchanged.
func (b *Buffer) InsertRun(prev util.ID, run []Char) (next util.ID, err error) {
	r := 0
	if !prev.IsNil() {
		pr, ok := b.order.totalRank(prev)
		if !ok {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		r = pr + 1
	}
	var succ Char
	if r < b.TotalLen() {
		s := slotAt(b.root, r)
		s.r.fill(&succ, s.i)
		next = succ.ID
	}
	if len(run) == 0 {
		return next, nil
	}
	if key := keyOf(&run[0]); !next.IsNil() && succ.After == prev && key <= succ.Key {
		return util.NilID, fmt.Errorf("texttree: key %v of %v does not precede key %v of %v after %v",
			key, run[0].ID, succ.Key, succ.ID, prev)
	}
	at := func(i int) *Char { return &run[i] }
	chained := func(i int) bool { return keyOf(&run[i]) == run[i].ID }
	ascending := true
	for i := 1; i < len(run) && ascending; i++ {
		ascending = run[i].ID > run[i-1].ID
	}
	if !ascending {
		ids := make([]util.ID, len(run))
		for i := range run {
			ids[i] = run[i].ID
		}
		slices.Sort(ids)
		for j := 1; j < len(ids); j++ {
			if ids[j] == ids[j-1] {
				return util.NilID, fmt.Errorf("texttree: duplicate char %v within run", ids[j])
			}
		}
	}
	c := runCursor{recs: newRuns(len(run), at, chained, func(lo int) (util.ID, util.ID) {
		if lo == 0 {
			return prev, keyOf(&run[0])
		}
		return run[lo-1].ID, keyOf(&run[lo])
	})}
	for i := range c.recs {
		if rec := &c.recs[i]; b.order.overlaps(rec.first, rec.step, rec.last()) {
			return util.NilID, fmt.Errorf("texttree: duplicate char in %v..%v", rec.first, rec.last())
		}
	}

	// Validated; now mutate.
	t := b.order.tail(prev)
	for i := range c.recs {
		rec := &c.recs[i]
		t, _ = b.order.add(t, rec.first, rec.step, rec.len())
	}
	b.root = insert(b.gen, b.root, r, len(run), c.at)
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

// Delete tombstones the instances ids (logical deletion), in order, as if
// one at a time; their places are untouched and instances already deleted
// are skipped. visit, if not nil, is called with the index in ids and the
// visible position of each instance as it is hidden. Instances that are
// adjacent in the document and in one record share one new record, so
// deleting a span of a run costs one record, not one per character. On
// an unknown ID the buffer is unchanged.
func (b *Buffer) Delete(ids []util.ID, by string, at time.Time, visit func(k, pos int)) error {
	return b.flip(ids, visit, true, runMeta{deleted: true, deletedBy: by, deletedAt: at})
}

// Undelete makes tombstoned instances visible again at instant at (undo of
// a delete), in order, as if one at a time; visible ones are skipped.
// visit, if not nil, is called with the index in ids and the visible
// position of each instance once it shows. The deletion metadata is kept,
// not zeroed: the recorded interval [DeletedAt, at) is what lets TextAt
// inside the interval still see the deletion. On an unknown ID the buffer
// is unchanged.
func (b *Buffer) Undelete(ids []util.ID, at time.Time, visit func(k, pos int)) error {
	return b.flip(ids, visit, false, runMeta{restored: at})
}

// flip is Delete (del set) and Undelete: each stretch of ids that are
// adjacent in the document, consecutive in one record and all in the state
// flip changes gets one new record, whose deletion state del gives (an
// undelete keeps each stretch's DeletedBy and DeletedAt).
func (b *Buffer) flip(ids []util.ID, visit func(k, pos int), del bool, state runMeta) error {
	for _, id := range ids {
		if !b.order.has(id) {
			return fmt.Errorf("%w: %v", ErrUnknownChar, id)
		}
	}
	var last *runMeta // the metadata the last stretch got, shared if equal
	for k := 0; k < len(ids); {
		rank, _ := b.order.totalRank(ids[k])
		s := slotAt(b.root, rank)
		if s.r.deleted() == del {
			k++
			continue
		}
		n := 1
		for k+n < len(ids) && s.i+n < s.r.len() && ids[k+n] == s.r.id(s.i+n) && rank+n < b.TotalLen() {
			if next := slotAt(b.root, rank+n); next != (slot{s.r, s.i + n}) {
				break
			}
			n++
		}
		m := state
		if !del && s.r.meta != nil {
			m.deletedBy, m.deletedAt = s.r.meta.deletedBy, s.r.meta.deletedAt
		}
		last = share(last, s.r.subMeta(s.i, m))
		rec := s.r.sub(s.i, n, last)
		b.root = setRange(b.gen, b.root, rank, n, func(i int) slot { return slot{rec, i} }, 0)
		b.version++
		if visit != nil {
			pos := visibleBefore(b.root, rank)
			for j := 0; j < n; j++ {
				if del {
					visit(k+j, pos)
				} else {
					visit(k+j, pos+j)
				}
			}
		}
		k += n
	}
	return nil
}

// CheckInvariants verifies the structural invariants of the buffer: the
// order's extents cover exactly the hot instances, in the mirror's order;
// each record's implied anchors derive that order (anchorOrder); and the
// mirror's structure and counts hold. Used by tests and failure injection.
func (b *Buffer) CheckInvariants() error {
	arch := b.Archive()
	if err := arch.CheckInvariants(); err != nil {
		return err
	}
	if err := b.order.check(); err != nil {
		return err
	}
	// The mirror must be sound before its slots are read: a divergence
	// here means positional reads and snapshots are lying about the
	// document. The live view is read as is: Snapshot would end the
	// generation, and a check must not change which writes copy nodes.
	snap := &Snapshot{view: b.view}
	if err := checkTree(snap.root); err != nil {
		return fmt.Errorf("texttree: snapshot mirror: %w", err)
	}
	if snap.TotalLen() != b.order.root.sizeOf() {
		return fmt.Errorf("texttree: mirror holds %d instances, the extents %d", snap.TotalLen(), b.order.root.sizeOf())
	}
	// The extents, in document order, hold the slots' IDs; each ID's
	// total rank is its slot's.
	ids := make([]util.ID, 0, snap.TotalLen())
	walk(snap.root, func(s slot, _ bool) bool {
		ids = append(ids, s.r.id(s.i))
		return true
	})
	var err error
	at := 0
	b.order.walk(func(e *extent) bool {
		for i := 0; i < e.n && err == nil; i, at = i+1, at+1 {
			id := e.id(i)
			switch r, ok := b.order.totalRank(id); {
			case ids[at] != id:
				err = fmt.Errorf("texttree: extent %v holds %v at rank %d, the mirror %v", e.start, id, at, ids[at])
			case !ok || r != at:
				err = fmt.Errorf("texttree: %v is at rank %d, the order ranks it %d", id, at, r)
			case arch.Contains(id):
				err = fmt.Errorf("texttree: %v is both hot and archived", id)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, anchor := range arch.Anchors() {
		if !anchor.IsNil() && !b.order.has(anchor) {
			return fmt.Errorf("texttree: archive run anchored at non-hot %v", anchor)
		}
	}
	// Anchor position i must be rank i: the records' After and Key, as
	// they imply them, derive the order the mirror holds.
	chars := snap.AllChars()
	recs := make([]*Char, len(chars))
	for i := range chars {
		recs[i] = &chars[i]
	}
	ordered, err := anchorOrder(recs)
	if err != nil {
		return err
	}
	for i, ch := range ordered {
		if ch.ID != ids[i] {
			return fmt.Errorf("texttree: mirror holds %v at %d, the anchors put %v there", ids[i], i, ch.ID)
		}
	}
	return snap.CheckInvariants()
}
