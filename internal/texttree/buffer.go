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
	// from NilID, children in descending Key (see runOrder). A fresh
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
// rebuilt from them: with LoadRuns from runs as a database stores them
// (Run, cutRuns), one record per run, or with Load from instances.
//
// The order treap is the ID index: its nodes are ID extents, and it
// answers the total rank of an ID. The mirror in the embedded view, a
// persistent B+-tree whose leaves hold up to leafCap segments, each naming
// a record, a first offset in it and a count, answers every positional
// read, for the buffer as for its snapshots, and lets Snapshot hand out an
// immutable O(1) view at any time. Records are copy-on-write: a record is
// never mutated once a segment names it — an edit points the instances it
// changes at a new record instead, cutting their segment around them.
// Mirror nodes are copy-on-write per generation: a write copies a node
// made before the last Snapshot (which may be reachable from it) and
// updates in place a node it or an earlier write of the same generation
// made (which no snapshot can reach).
type Buffer struct {
	view
	order order
	gen   uint64 // the mirror generation writes make nodes in; Snapshot ends it
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{view: view{arch: emptyArchive}}
}

// Load rebuilds the buffer from persisted character rows, in any order:
// cut in ID order into the longest runs one record can hold (cutRuns),
// so that a typed run is one record again wherever text was typed into
// it, and ordered as LoadRuns orders runs.
func Load(rows []Char) (*Buffer, error) {
	return loadRecords(recordsOf(rows))
}

// recordsOf cuts instances, in any order, into records: in ID order, the
// longest stretches cutRuns allows, each instance typed after the one
// before it and keyed by its own ID. Their ID ranges do not overlap.
func recordsOf(chars []Char) []run {
	byID := make([]*Char, len(chars))
	for i := range chars {
		byID[i] = &chars[i]
	}
	slices.SortFunc(byID, func(a, b *Char) int { return cmp.Compare(a.ID, b.ID) })
	at := func(i int) *Char { return byID[i] }
	return newRuns(len(byID), at, chainedAt(at),
		func(lo int) (util.ID, util.ID) { return byID[lo].After, byID[lo].Key })
}

// LoadRuns rebuilds the buffer from persisted runs, in any order, without
// a record per instance: each run becomes one record, and document order is
// derived from the runs' anchors (runOrder). The ID ranges [First, Last]
// of two runs must not overlap, which holds for the runs of one ID
// generator.
func LoadRuns(runs []Run) (*Buffer, error) {
	n := 0
	for i := range runs {
		n += len(runs[i].Text) // bytes: at least the runes
	}
	block := make([]rune, 0, n)
	recs := make([]run, len(runs))
	var last *runMeta
	for i := range runs {
		recs[i], block = runs[i].record(block, last)
		if recs[i].len() == 0 {
			return nil, fmt.Errorf("texttree: run %v has no text", runs[i].First)
		}
		if recs[i].meta != nil {
			last = recs[i].meta
		}
	}
	return loadRecords(recs)
}

// loadRecords returns the buffer of recs, records whose ID ranges do not
// overlap, in the document order runOrder derives.
func loadRecords(recs []run) (*Buffer, error) {
	segs, err := runOrder(recs)
	if err != nil {
		return nil, err
	}
	segs = layOut(segs)
	b := NewBuffer()
	var t *extent
	for _, s := range segs {
		if t, err = b.order.add(t, s.r.id(s.lo), s.r.step, s.hi-s.lo); err != nil {
			return nil, err
		}
	}
	b.root = replace(b.gen, nil, 0, 0, segs)
	return b, nil
}

// layOut returns segs as new records, one per stretch, in one new array
// and their runes in another, both in document order: a walk in document
// order then reads memory in order. Records cut in ID order, as rows are,
// lie in the order of their IDs otherwise, and a record that text was
// typed into is visited in two stretches. A stretch that continues the
// record before it — a record's start typed right after that record's
// last instance, at the next ID of its progression, with the same
// metadata and no provenance — joins it, so runs a row's size cap cut
// load as one record.
func layOut(segs []seg) []seg {
	total := 0
	for _, s := range segs {
		total += s.hi - s.lo
	}
	recs, runes := make([]run, 0, len(segs)), make([]rune, 0, total)
	start := 0 // of the last record's runes
	for _, s := range segs {
		if k := len(recs) - 1; k >= 0 && s.lo == 0 && continues(&recs[k], s.r, s.hi) {
			p := &recs[k]
			p.step = s.r.first - p.last() // a record of one has no step yet
			runes = append(runes, s.r.runes[:s.hi]...)
			p.runes = runes[start:len(runes):len(runes)]
			continue
		}
		m := s.r.meta
		if m != nil && s.lo > 0 {
			sm := s.r.subMeta(s.lo, *m)
			m = &sm
		}
		r := s.r.sub(s.lo, s.hi-s.lo, m)
		start = len(runes)
		runes = append(runes, r.runes...)
		r.runes = runes[start:len(runes):len(runes)]
		recs = append(recs, *r)
	}
	segs = segs[:len(recs)]
	for i := range recs {
		segs[i] = seg{&recs[i], 0, recs[i].len()}
	}
	return segs
}

// continues reports whether the instances [0, n) of r, following p in
// document order, can be appended to p: p's author, Created and metadata,
// without provenance, r typed right after p's last instance and keyed by
// its own ID, and one ID step from p's first instance to r's last.
func continues(p, r *run, n int) bool {
	if p.author != r.author || p.created != r.created || r.after != p.last() || r.key != r.first || r.first <= p.last() {
		return false
	}
	if pm, rm := p.meta, r.meta; pm != rm && (pm == nil || rm == nil || *pm != *rm) {
		return false
	}
	if m := p.meta; m != nil && (!m.srcDoc.IsNil() || !m.srcFirst.IsNil() || m.srcStep != 0) {
		return false
	}
	step := r.first - p.last()
	return (p.len() == 1 || step == p.step) && (n == 1 || r.step == step)
}

// seg is the instances [lo, hi) of record r, adjacent in document order.
type seg struct {
	r      *run
	lo, hi int
}

// runOrder returns the instances of recs in document order, as stretches
// of records: the pre-order walk of the anchor tree from NilID, visiting
// the instances typed after one instance in descending Key. The server
// mints ascending IDs and a fresh instance's Key is its ID, so an insert
// becomes its anchor's first child and the walk puts it right after the
// anchor — exactly where the paper's doubly linked list splices it. The
// walk takes a record a stretch at a time: its instances follow one
// another until one of them has an instance typed after it besides the
// record's next; there it visits what was typed after that instance by
// descending Key, the rest of the record counting as one of them with its
// next instance's ID as Key. The walk is iterative: typed text is a chain
// of anchors as deep as it is long. It fails on records whose ID ranges
// overlap, two siblings with one Key, a missing anchor, and an instance
// the walk never reaches (an anchor cycle).
func runOrder(recs []run) ([]seg, error) {
	byFirst := make([]*run, len(recs))
	total := 0
	for i := range recs {
		byFirst[i] = &recs[i]
		total += recs[i].len()
	}
	slices.SortFunc(byFirst, func(a, b *run) int { return cmp.Compare(a.first, b.first) })
	for i := 1; i < len(byFirst); i++ {
		if p, r := byFirst[i-1], byFirst[i]; p.last() >= r.first {
			return nil, fmt.Errorf("texttree: runs %v..%v and %v..%v overlap", p.first, p.last(), r.first, r.last())
		}
	}
	// holder returns the record that holds id, or nil.
	holder := func(id util.ID) *run {
		i, _ := slices.BinarySearchFunc(byFirst, id, func(r *run, id util.ID) int { return cmp.Compare(r.first, id+1) })
		if i == 0 || byFirst[i-1].index(id) < 0 {
			return nil
		}
		return byFirst[i-1]
	}
	// Records typed after an instance sit side by side, by descending Key,
	// in kids.
	type kid struct {
		after, key util.ID
		r          *run
	}
	kids := make([]kid, len(recs))
	for i := range recs {
		kids[i] = kid{recs[i].after, recs[i].key, &recs[i]}
	}
	slices.SortFunc(kids, func(a, b kid) int {
		if a.after != b.after {
			return cmp.Compare(a.after, b.after)
		}
		return cmp.Compare(b.key, a.key)
	})
	for i := 1; i < len(kids); i++ {
		if k := kids[i]; kids[i-1].after == k.after && kids[i-1].key == k.key {
			return nil, fmt.Errorf("texttree: %v and %v share key %v after %v", kids[i-1].r.first, k.r.first, k.key, k.after)
		}
	}
	from := func(id util.ID) int { // the first kid typed after id or later
		i, _ := slices.BinarySearchFunc(kids, id, func(k kid, id util.ID) int { return cmp.Compare(k.after, id) })
		return i
	}
	// push stacks what was typed after id — the kids and, with next set,
	// the rest of the record from instance next.lo — so that the highest
	// Key pops first.
	var stack []seg
	push := func(id util.ID, next *seg) error {
		lo := from(id)
		end := lo
		for end < len(kids) && kids[end].after == id {
			end++
		}
		for end--; end >= lo; end-- {
			k := kids[end]
			if next != nil && next.r.id(next.lo) <= k.key {
				if next.r.id(next.lo) == k.key {
					return fmt.Errorf("texttree: %v and %v share key %v after %v", next.r.id(next.lo), k.r.first, k.key, id)
				}
				stack, next = append(stack, *next), nil
			}
			stack = append(stack, seg{k.r, 0, 0})
		}
		if next != nil {
			stack = append(stack, *next)
		}
		return nil
	}
	out := make([]seg, 0, len(recs))
	seen := 0
	if err := push(util.NilID, nil); err != nil {
		return nil, err
	}
	for len(stack) > 0 && seen < total {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// The stretch ends at the first of its instances something else
		// was typed after.
		s.hi = s.r.len()
		if i := from(s.r.id(s.lo)); i < len(kids) && kids[i].after <= s.r.last() {
			if s.hi = s.r.index(kids[i].after) + 1; s.hi == 0 {
				return nil, fmt.Errorf("texttree: %v is anchored at missing char %v", kids[i].r.first, kids[i].after)
			}
		}
		out = append(out, s)
		seen += s.hi - s.lo
		var next *seg
		if s.hi < s.r.len() {
			next = &seg{s.r, s.hi, 0}
		}
		if err := push(s.r.id(s.hi-1), next); err != nil {
			return nil, err
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("texttree: the anchor walk meets an instance twice")
	}
	if seen == total {
		return out, nil
	}
	for _, k := range kids {
		if !k.after.IsNil() && holder(k.after) == nil {
			return nil, fmt.Errorf("texttree: %v is anchored at missing char %v", k.r.first, k.after)
		}
	}
	return nil, fmt.Errorf("texttree: %d chars unreachable from the front", total-seen)
}

// char returns the character instance with id.
func (b *Buffer) char(id util.ID) (Char, bool) {
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
// instance's own ID; no other instance changes. The run is stored as few
// records as it can be cut into (cutRuns): one for text typed or pasted in
// one go. It splices them as InsertRecord does. The buffer copies what it
// keeps of the run, so the caller's slice is reusable immediately. On
// error the buffer is unchanged.
func (b *Buffer) InsertRun(prev util.ID, run []Char) (next util.ID, err error) {
	if len(run) == 0 {
		return b.insertRecords(prev, nil)
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
	return b.insertRecords(prev, newRuns(len(run), at, chained, func(lo int) (util.ID, util.ID) {
		if lo == 0 {
			return prev, keyOf(&run[0])
		}
		return run[lo-1].ID, keyOf(&run[lo])
	}))
}

// InsertRecord inserts the instances of r, a run in row form, right after
// r.After (NilID = front of document), and returns the instance after
// them (NilID at the end). A zero Key is the first instance's ID. With src
// not nil, instance i was copied from src[i], or from nothing past src's
// end, in place of r.SourceFirst+i*r.SourceStep: a paste's sources need
// not form one progression, and the run is stored as one record per
// stretch of them that does. The records are spliced in one descent of
// the mirror, to the leaf at the run's start rank: the leaf is cut into
// balanced leaves if they overflow it, and each inner node above takes
// the new leaves or splits in turn. Only that one root-to-leaf path is
// copied, however long the run. The run must land in front of what
// r.After was typed before: its Key must exceed the Key of the current
// first instance typed after r.After. On error the buffer is unchanged.
func (b *Buffer) InsertRecord(r *Run, src []util.ID) (next util.ID, err error) {
	n := r.Len()
	if n == 0 {
		return b.insertRecords(r.After, nil)
	}
	if n > 1 && r.Step == 0 {
		return util.NilID, fmt.Errorf("texttree: run %v of %d instances has no step", r.First, n)
	}
	return b.insertRecords(r.After, r.records(n, src))
}

// insertRecords splices recs, records whose instances follow one another,
// right after prev and returns the instance after them.
func (b *Buffer) insertRecords(prev util.ID, recs []run) (next util.ID, err error) {
	r := 0
	if !prev.IsNil() {
		pr, ok := b.order.totalRank(prev)
		if !ok {
			return util.NilID, fmt.Errorf("%w: predecessor %v", ErrUnknownChar, prev)
		}
		r = pr + 1
	}
	if r < b.TotalLen() {
		var succ Char
		s := slotAt(b.root, r)
		s.r.fill(&succ, s.i)
		next = succ.ID
		if len(recs) > 0 && succ.After == prev && recs[0].key <= succ.Key {
			return util.NilID, fmt.Errorf("texttree: key %v of %v does not precede key %v of %v after %v",
				recs[0].key, recs[0].first, succ.Key, succ.ID, prev)
		}
	}
	if len(recs) == 0 {
		return next, nil
	}
	for i := range recs {
		if rec := &recs[i]; b.order.overlaps(rec.first, rec.step, rec.last()) {
			return util.NilID, fmt.Errorf("texttree: duplicate char in %v..%v", rec.first, rec.last())
		}
	}

	// Validated; now mutate.
	t := b.order.tail(prev)
	var stack [4]seg // a key is one record
	segs := stack[:0]
	for i := range recs {
		rec := &recs[i]
		t, _ = b.order.add(t, rec.first, rec.step, rec.len())
		segs = append(segs, seg{rec, 0, rec.len()})
	}
	b.root = replace(b.gen, b.root, r, 0, segs)
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
// are skipped. visit, if not nil, is called for each stretch of them that
// is hidden at once — ids from index k on, the IDs of s — with the visible
// position each instance of s has as it is hidden, pos. Instances that are
// adjacent in the document and in one record share one new record, so
// deleting a span of a run costs one record, not one per character. On an
// unknown ID the buffer is unchanged.
func (b *Buffer) DeleteIDs(ids util.IDs, by string, at time.Time, visit func(k int, s util.Stretch, pos int)) error {
	return b.flip(ids, visit, true, runMeta{deleted: true, deletedBy: by, deletedAt: at})
}

// UndeleteIDs makes tombstoned instances visible again at instant at (undo
// of a delete), in order, as if one at a time; visible ones are skipped.
// visit, if not nil, is called for each stretch of them that shows at once
// — ids from index k on, the IDs of s — with the visible position of its
// first instance once it shows, pos; the others follow it. The deletion
// metadata is kept, not zeroed: the recorded interval [DeletedAt, at) is
// what lets TextAt inside the interval still see the deletion. On an
// unknown ID the buffer is unchanged.
func (b *Buffer) UndeleteIDs(ids util.IDs, at time.Time, visit func(k int, s util.Stretch, pos int)) error {
	return b.flip(ids, visit, false, runMeta{restored: at})
}

// deleteEach is DeleteIDs for a slice of IDs, visited one instance at a time:
// visit gets the index in ids and the visible position of each.
func (b *Buffer) deleteEach(ids []util.ID, by string, at time.Time, visit func(k, pos int)) error {
	return b.DeleteIDs(util.IDsOf(ids), by, at, eachInstance(visit, true))
}

// undeleteEach is UndeleteIDs for a slice of IDs, visited one instance at a
// time.
func (b *Buffer) undeleteEach(ids []util.ID, at time.Time, visit func(k, pos int)) error {
	return b.UndeleteIDs(util.IDsOf(ids), at, eachInstance(visit, false))
}

// eachInstance returns a stretch visitor that calls visit for each
// instance of the stretch: at the stretch's position for a delete, one
// further on for each instance before it for an undelete.
func eachInstance(visit func(k, pos int), del bool) func(int, util.Stretch, int) {
	if visit == nil {
		return nil
	}
	return func(k int, s util.Stretch, pos int) {
		for j := 0; j < s.N; j++ {
			if del {
				visit(k+j, pos)
			} else {
				visit(k+j, pos+j)
			}
		}
	}
}

// Holds reports how many IDs of s, from its first on, the buffer holds
// side by side in one record, and whether they are deleted; n is 0 if the
// buffer does not hold s.First.
func (b *Buffer) Holds(s util.Stretch) (n int, deleted bool) {
	rank, ok := b.order.totalRank(s.First)
	if !ok {
		return 0, false
	}
	sg, off := segAt(b.root, rank)
	n = 1
	if s.N > 1 && s.Step == int64(sg.r.step) {
		n = min(s.N, sg.hi-sg.lo-off)
	}
	return n, sg.r.deleted()
}

// flip is DeleteIDs (del set) and UndeleteIDs: each stretch of ids that
// are adjacent in the document, consecutive in one record and all in the
// state flip changes gets one new record, whose deletion state del gives
// (an undelete keeps each stretch's DeletedBy and DeletedAt).
func (b *Buffer) flip(ids util.IDs, visit func(int, util.Stretch, int), del bool, state runMeta) error {
	for k := 0; k < ids.Stretches(); k++ {
		s := ids.Stretch(k)
		for j := 0; j < s.N; {
			n, _ := b.Holds(util.Stretch{First: s.At(j), Step: s.Step, N: s.N - j})
			if n == 0 {
				return fmt.Errorf("%w: %v", ErrUnknownChar, s.At(j))
			}
			j += n
		}
	}
	var last *runMeta // the metadata the last stretch got, shared if equal
	for c := (idCursor{ids: ids}); c.k < ids.Stretches(); {
		id, k := c.id(), c.at
		rank, _ := b.order.totalRank(id)
		sg, off := segAt(b.root, rank)
		s := slot{sg.r, sg.lo + off}
		// The stretch ends with the segment: the instances of a record
		// that sit side by side in the document are one segment.
		n := c.follow(s.r.step, sg.hi-s.i)
		if sg.r.deleted() == del {
			continue
		}
		m := state
		if !del && s.r.meta != nil {
			m.deletedBy, m.deletedAt = s.r.meta.deletedBy, s.r.meta.deletedAt
		}
		last = share(last, s.r.subMeta(s.i, m))
		rec := s.r.sub(s.i, n, last)
		put := [1]seg{{rec, 0, n}}
		b.root = replace(b.gen, b.root, rank, n, put[:])
		b.version++
		if visit != nil {
			st := util.Stretch{First: id, Step: int64(s.r.step), N: n}
			if n == 1 {
				st.Step = 0 // a stretch of one has no step
			}
			visit(k, st, visibleBefore(b.root, rank))
		}
	}
	return nil
}

// idCursor walks an IDs list: it is at ID at of the list, offset j of
// stretch k.
type idCursor struct {
	ids      util.IDs
	k, j, at int
}

func (c *idCursor) id() util.ID { return c.ids.Stretch(c.k).At(c.j) }

// follow moves the cursor past the IDs from it on that continue the
// progression id(), id()+step, ..., at most max of them, and returns how
// many it passed: at least one. The progression may cross the list's
// stretches.
func (c *idCursor) follow(step util.ID, max int) int {
	n, next := 0, c.id()
	for n < max && c.k < c.ids.Stretches() {
		s := c.ids.Stretch(c.k)
		if s.At(c.j) != next {
			break
		}
		m := 1
		if s.Step == int64(step) {
			m = min(s.N-c.j, max-n)
		}
		n, next, c.j, c.at = n+m, next+util.ID(m)*step, c.j+m, c.at+m
		if c.j < s.N {
			break
		}
		c.k, c.j = c.k+1, 0
	}
	return n
}

// CheckInvariants verifies the structural invariants of the buffer: the
// order's extents cover exactly the hot instances, in the mirror's order;
// each record's implied anchors derive that order (runOrder); and the
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
	segs, err := runOrder(recordsOf(snap.AllChars()))
	if err != nil {
		return err
	}
	at = 0
	for _, sg := range segs {
		for i := sg.lo; i < sg.hi; i, at = i+1, at+1 {
			if id := sg.r.id(i); id != ids[at] {
				return fmt.Errorf("texttree: mirror holds %v at %d, the anchors put %v there", ids[at], at, id)
			}
		}
	}
	return snap.CheckInvariants()
}
