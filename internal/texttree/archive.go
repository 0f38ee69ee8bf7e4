package texttree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tendax/internal/util"
)

// This file implements the cold-tombstone archive: the compaction side of
// logical deletion. TeNDaX never forgets a character instance, so a
// long-lived document's hot structures (the text buffer's records and
// extents, the persistent snapshot mirror, the chars rows) are eventually
// dominated by dead text. Compaction migrates "cold" tombstones —
// instances deleted before a configurable horizon — out of the hot set
// into archive runs, shrinking every hot structure to O(visible + warm)
// while keeping provenance fully queryable: time travel transparently
// merges the archive back in when the requested instant predates the
// horizon.
//
// An archive run is a maximal sequence of consecutive archived instances,
// keyed by its anchor: the hot instance immediately preceding the run in
// document order (NilID for a run at the head of the document). The
// merged order is therefore: anchor, then its run, then the anchor's hot
// successor. Anchors can themselves go cold in a later pass; their run is
// then spliced into the new run at the position document order dictates,
// so the merged order is stable across any number of passes.
//
// Correctness of merge-on-read ordering: a hot instance inserted after an
// anchor post-archival lands between the anchor and its run in the merged
// walk even though the true order had it before the run. This is
// unobservable: the archived instances were deleted before the pass
// horizon h, the interloper was created at or after the pass (>= h), and
// no instant t satisfies both t < h (archived char visible) and t >= h
// (interloper visible). DESIGN.md §6 gives the full argument.

// Archive is the immutable cold-tombstone store of one buffer. Like the
// persistent mirror it is copy-on-write: compaction and rehydration build a
// new Archive and republish, so any snapshot already holding the old one
// keeps a frozen, internally consistent view.
type Archive struct {
	runs  map[util.ID][]*Char // anchor -> archived instances in merged order
	index map[util.ID]util.ID // archived char id -> its run's anchor
	count int
	// newest is the latest DeletedAt of any archived instance: for
	// t >= newest no archived instance is visible, so reads at or after it
	// skip the merge entirely (the common case: the present).
	newest time.Time
}

var emptyArchive = &Archive{}

// NewArchive builds an archive from decoded runs (database load). The
// slices are retained; callers must not mutate them afterwards.
func NewArchive(runs map[util.ID][]*Char) *Archive {
	if len(runs) == 0 {
		return emptyArchive
	}
	a := &Archive{runs: runs, index: make(map[util.ID]util.ID)}
	for anchor, run := range runs {
		for _, ch := range run {
			a.index[ch.ID] = anchor
			a.count++
			if ch.DeletedAt.After(a.newest) {
				a.newest = ch.DeletedAt
			}
		}
	}
	return a
}

// Len returns the number of archived instances.
func (a *Archive) Len() int {
	if a == nil {
		return 0
	}
	return a.count
}

// Char returns the frozen record of an archived instance.
func (a *Archive) Char(id util.ID) (*Char, bool) {
	if a == nil || a.index == nil {
		return nil, false
	}
	anchor, ok := a.index[id]
	if !ok {
		return nil, false
	}
	for _, ch := range a.runs[anchor] {
		if ch.ID == id {
			return ch, true
		}
	}
	return nil, false
}

// Contains reports whether id is archived.
func (a *Archive) Contains(id util.ID) bool {
	if a == nil || a.index == nil {
		return false
	}
	_, ok := a.index[id]
	return ok
}

// AnchorOf returns the anchor of the run holding the archived id.
func (a *Archive) AnchorOf(id util.ID) (util.ID, bool) {
	if a == nil || a.index == nil {
		return util.NilID, false
	}
	anchor, ok := a.index[id]
	return anchor, ok
}

// Run returns the archived instances anchored at anchor, in merged order.
func (a *Archive) Run(anchor util.ID) []*Char {
	if a == nil {
		return nil
	}
	return a.runs[anchor]
}

// Anchors returns every anchor with a non-empty run (unordered).
func (a *Archive) Anchors() []util.ID {
	if a == nil {
		return nil
	}
	out := make([]util.ID, 0, len(a.runs))
	for anchor := range a.runs {
		out = append(out, anchor)
	}
	return out
}

// visibleAt reports whether any archived instance can be visible at t:
// false for any t at or after the newest archived deletion, which is the
// fast path that keeps present-time reads purely hot.
func (a *Archive) visibleAt(t time.Time) bool {
	return a != nil && a.count > 0 && t.Before(a.newest)
}

// clone returns a mutable shallow copy of the archive's maps; run slices
// are still shared and must be replaced, never appended to in place.
// Callers reach archives through Buffer.Archive()/Snapshot.Archive(), so
// the receiver is never nil.
func (a *Archive) clone() *Archive {
	c := &Archive{
		runs:   make(map[util.ID][]*Char, len(a.runs)+8),
		index:  make(map[util.ID]util.ID, len(a.index)+8),
		count:  a.count,
		newest: a.newest,
	}
	for k, v := range a.runs {
		c.runs[k] = v
	}
	for k, v := range a.index {
		c.index[k] = v
	}
	return c
}

// CheckInvariants verifies the archive's internal consistency.
func (a *Archive) CheckInvariants() error {
	if a == nil {
		return nil
	}
	n := 0
	for anchor, run := range a.runs {
		if len(run) == 0 {
			return fmt.Errorf("texttree: archive has empty run at anchor %v", anchor)
		}
		for _, ch := range run {
			if ch == nil {
				return fmt.Errorf("texttree: archive run at %v holds nil char", anchor)
			}
			if !ch.Deleted {
				return fmt.Errorf("texttree: archived char %v is not a tombstone", ch.ID)
			}
			if got, ok := a.index[ch.ID]; !ok || got != anchor {
				return fmt.Errorf("texttree: archive index of %v is %v, want %v", ch.ID, got, anchor)
			}
			if ch.DeletedAt.After(a.newest) {
				return fmt.Errorf("texttree: archive newest %v predates %v of %v", a.newest, ch.DeletedAt, ch.ID)
			}
			n++
		}
	}
	if n != a.count {
		return fmt.Errorf("texttree: archive count %d, runs hold %d", a.count, n)
	}
	if len(a.index) != n {
		return fmt.Errorf("texttree: archive index has %d entries for %d chars", len(a.index), n)
	}
	return nil
}

// SetArchive installs the archive at load time (before any snapshot has
// been taken). Compaction and rehydration replace it through their plans.
func (b *Buffer) SetArchive(a *Archive) {
	if a == nil {
		a = emptyArchive
	}
	b.arch = a
}

// ColdRun is one maximal run of consecutive cold tombstones, as found by
// PlanCompaction. Chars are frozen copies in document order; Anchor is the
// hot instance right before the run (NilID at the head).
type ColdRun struct {
	Anchor util.ID
	Chars  []*Char
}

// CompactionPlan captures everything one compaction pass will do, computed
// against the current buffer state so the caller can persist the exact
// post-state inside a transaction before applying it in memory.
type CompactionPlan struct {
	Horizon time.Time
	Runs    []ColdRun
	// MergedRuns is the full post-pass content of every archive run the
	// pass rewrites, keyed by surviving anchor. Anchors whose runs are
	// absorbed into a surviving run appear in RemovedAnchors instead.
	MergedRuns     map[util.ID][]*Char
	RemovedAnchors []util.ID
	// Reanchored holds the post-pass record of every surviving hot
	// instance whose After the pass archives: its After becomes its hot
	// predecessor after the pass (NilID at the head), its Key stays, and
	// the derived order is the old one without the cold instances (DESIGN
	// §6 gives the argument).
	Reanchored []*Char

	arch *Archive // the archive to publish on apply
}

// Cold reports whether ch is a cold tombstone under horizon: deleted, and
// deleted strictly before the horizon. (Created < DeletedAt always, so a
// cold instance is also created before the horizon.)
func cold(ch *Char, horizon time.Time) bool {
	return ch.Deleted && ch.DeletedAt.Before(horizon)
}

// PlanCompaction finds every maximal cold run under horizon and builds the
// pass's full effect: merged archive runs and re-anchored hot instances.
// It does not mutate the buffer; returns nil if nothing is cold. Callers
// must serialise with writers (core runs it under the document lock) and
// must not use the plan after further buffer mutation.
func (b *Buffer) PlanCompaction(horizon time.Time) *CompactionPlan {
	var runs []ColdRun
	var cur *ColdRun
	var reanchored []*Char
	archived := make(map[util.ID]bool)
	prevHot := util.NilID
	b.Walk(func(ch *Char, _ bool) bool {
		if cold(ch, horizon) {
			if cur == nil {
				cur = &ColdRun{Anchor: prevHot}
			}
			cc := *ch // the walk reuses ch
			cur.Chars = append(cur.Chars, &cc)
			archived[ch.ID] = true
			return true
		}
		if cur != nil {
			runs = append(runs, *cur)
			cur = nil
		}
		// The walk is in document order, so an instance's After, coming
		// before it, is already classified.
		if archived[ch.After] {
			cc := *ch
			cc.After = prevHot
			reanchored = append(reanchored, &cc)
		}
		prevHot = ch.ID
		return true
	})
	if cur != nil {
		runs = append(runs, *cur)
	}
	if len(runs) == 0 {
		return nil
	}

	plan := &CompactionPlan{
		Horizon:    horizon,
		Runs:       runs,
		MergedRuns: make(map[util.ID][]*Char, len(runs)),
		Reanchored: reanchored,
	}
	arch := b.Archive().clone()
	for _, run := range runs {
		// Merge: existing run at the surviving anchor, then each member
		// followed by the run it anchored (document order; see the ordering
		// argument at the top of the file).
		merged := append([]*Char(nil), arch.runs[run.Anchor]...)
		for _, ch := range run.Chars {
			merged = append(merged, ch)
			if sub := arch.runs[ch.ID]; len(sub) > 0 {
				merged = append(merged, sub...)
				delete(arch.runs, ch.ID)
				plan.RemovedAnchors = append(plan.RemovedAnchors, ch.ID)
			}
		}
		arch.runs[run.Anchor] = merged
		for _, ch := range merged {
			arch.index[ch.ID] = run.Anchor
			if ch.DeletedAt.After(arch.newest) {
				arch.newest = ch.DeletedAt
			}
		}
		arch.count += len(run.Chars)
		plan.MergedRuns[run.Anchor] = merged
	}
	plan.arch = arch
	return plan
}

// ApplyCompaction applies a plan computed by PlanCompaction against the
// unchanged buffer state: the cold instances are dropped, each
// re-anchored instance is pointed at a new record of its own that carries
// its new After, the mirror and the order's extents are rebuilt once from
// a walk of the old mirror, the instances left joined into the fewest
// segments (existing snapshots keep the old tree), and the new archive is
// published.
func (b *Buffer) ApplyCompaction(plan *CompactionPlan) {
	var keep []seg // the hot instances left, as the fewest segments
	runs, re := plan.Runs, plan.Reanchored
	var cold []*Char // the rest of the run being skipped
	walk(b.root, func(s slot, _ bool) bool {
		id := s.r.id(s.i)
		if len(cold) == 0 && len(runs) > 0 && runs[0].Chars[0].ID == id {
			cold, runs = runs[0].Chars, runs[1:]
		}
		if len(cold) > 0 {
			if cold[0].ID != id {
				panic(fmt.Sprintf("texttree: compaction plan is stale: %v where the run holds %v", id, cold[0].ID))
			}
			cold = cold[1:]
			return true
		}
		if len(re) > 0 && re[0].ID == id {
			var m *runMeta
			if s.r.meta != nil {
				mv := s.r.subMeta(s.i, *s.r.meta)
				m = &mv
			}
			rec := s.r.sub(s.i, 1, m)
			rec.after, re = re[0].After, re[1:]
			s = slot{rec, 0}
		}
		if k := len(keep) - 1; k >= 0 && keep[k].r == s.r && keep[k].hi == s.i {
			keep[k].hi++
		} else {
			keep = append(keep, seg{s.r, s.i, s.i + 1})
		}
		return true
	})
	if len(runs) > 0 || len(cold) > 0 || len(re) > 0 {
		panic(fmt.Sprintf("texttree: compaction plan is stale: %d runs, %d cold and %d re-anchored instances not met",
			len(runs), len(cold), len(re)))
	}
	b.order = order{}
	var t *extent
	for _, s := range keep {
		t, _ = b.order.add(t, s.r.id(s.lo), s.r.step, s.hi-s.lo)
	}
	b.root = replace(b.gen, nil, 0, 0, keep)
	b.arch = plan.arch
	b.version++
}

// RehydratePlan captures the re-insertion of archived instances back into
// the hot set (undo of an archived delete must make the instance live
// again before it can be undeleted).
type RehydratePlan struct {
	// Chars are the instances in re-insertion order, still tombstones,
	// each anchored After its run's anchor with a freshly minted Key, so
	// it lands right after the anchor.
	Chars []Char
	// RunUpdates is the final content of every archive run the plan
	// touches; an empty slice means the run disappears.
	RunUpdates map[util.ID][]*Char

	arch *Archive
}

// PlanRehydrate plans moving the given archived instances back into the
// hot set. Each instance is inserted immediately after its run's anchor
// with a Key from newKey, which must mint keys above every Key in the
// buffer (core passes its ID generator); the part of the run before it
// stays anchored where it was, the part after it is re-anchored at the
// instance itself, so the merged order is unchanged. IDs not present in
// the archive are ignored; the plan is nil if none are archived.
func (b *Buffer) PlanRehydrate(ids []util.ID, newKey func() util.ID) (*RehydratePlan, error) {
	arch := b.Archive()
	var want []util.ID
	for _, id := range ids {
		if arch.Contains(id) {
			want = append(want, id)
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	work := arch.clone()
	plan := &RehydratePlan{RunUpdates: make(map[util.ID][]*Char)}
	for _, id := range want {
		anchor, ok := work.index[id]
		if !ok {
			return nil, fmt.Errorf("texttree: rehydrate %v: not archived", id)
		}
		run := work.runs[anchor]
		i := 0
		for i < len(run) && run[i].ID != id {
			i++
		}
		if i == len(run) {
			return nil, fmt.Errorf("texttree: archive index of %v is torn", id)
		}
		ch := *run[i]

		// Split the run around the rehydrated instance.
		before := append([]*Char(nil), run[:i]...)
		after := append([]*Char(nil), run[i+1:]...)
		if len(before) == 0 {
			delete(work.runs, anchor)
			plan.RunUpdates[anchor] = nil
		} else {
			work.runs[anchor] = before
			plan.RunUpdates[anchor] = before
		}
		if len(after) > 0 {
			work.runs[ch.ID] = after
			plan.RunUpdates[ch.ID] = after
			for _, sub := range after {
				work.index[sub.ID] = ch.ID
			}
		}
		delete(work.index, id)
		work.count--

		ch.After, ch.Key = anchor, newKey()
		plan.Chars = append(plan.Chars, ch)
	}
	if work.count == 0 {
		plan.arch = emptyArchive
	} else {
		plan.arch = work
	}
	return plan, nil
}

// ApplyRehydrate applies a plan computed by PlanRehydrate against the
// unchanged buffer state: each instance re-enters the order and the
// persistent mirror as a tombstone, and the shrunken archive is published.
func (b *Buffer) ApplyRehydrate(plan *RehydratePlan) error {
	if plan == nil {
		return nil
	}
	for i := range plan.Chars {
		ch := &plan.Chars[i]
		if _, err := b.InsertRun(ch.After, plan.Chars[i:i+1]); err != nil {
			return fmt.Errorf("texttree: rehydrate %v: %w", ch.ID, err)
		}
	}
	b.arch = plan.arch
	b.version++
	return nil
}

// WalkAll visits every character instance — hot and archived — in merged
// order until fn returns false. Archived instances are emitted
// directly after their run's anchor. This is the full-history walk behind
// time travel across the compaction horizon.
func (v *view) WalkAll(fn func(ch *Char, archived bool) bool) {
	emit := func(anchor util.ID) bool {
		for _, ch := range v.arch.Run(anchor) {
			if !fn(ch, true) {
				return false
			}
		}
		return true
	}
	if !emit(util.NilID) {
		return
	}
	v.Walk(func(ch *Char, _ bool) bool {
		if !fn(ch, false) {
			return false
		}
		return emit(ch.ID)
	})
}

// hiddenAt reports whether ch is not part of the document text at t:
// not yet created, currently tombstoned at or before t, or inside its
// recorded deletion interval [DeletedAt, Restored) (an undeleted char
// keeps the interval so time travel still sees the gap).
func hiddenAt(ch *Char, t time.Time) bool {
	if ch.Created.After(t) {
		return true
	}
	if ch.Deleted {
		return !ch.DeletedAt.After(t)
	}
	if !ch.DeletedAt.IsZero() && !ch.DeletedAt.After(t) && ch.Restored.After(t) {
		return true
	}
	return false
}

// The archive row codec: archived instances persist as length-prefixed
// binary records packed into fixed-size chunk rows (core spills them like
// op chunks). The codec lives here so texttree tests and the db layer
// share one format.

// ErrArchiveCodec reports a corrupt archived-character encoding.
var ErrArchiveCodec = errors.New("texttree: corrupt archive record")

// EncodeArchived appends the binary encoding of ch to buf.
func EncodeArchived(buf []byte, ch *Char) []byte {
	var tmp [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	putStr := func(s string) {
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(s)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, s...)
	}
	putTime := func(t time.Time) {
		if t.IsZero() {
			putU64(0)
			return
		}
		putU64(uint64(t.UnixNano()))
	}
	putU64(uint64(ch.ID))
	putU64(uint64(uint32(ch.Rune)))
	putStr(ch.Author)
	putTime(ch.Created)
	putStr(ch.DeletedBy)
	putTime(ch.DeletedAt)
	putTime(ch.Restored)
	putU64(uint64(ch.SourceDoc))
	putU64(uint64(ch.SourceChar))
	return buf
}

// DecodeArchived parses one archived record from b, returning the char and
// the remaining bytes. After and Key are not stored: an archived
// instance's place is defined by its run, and rehydration gives it new
// ones.
func DecodeArchived(b []byte) (Char, []byte, error) {
	var ch Char
	u64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	str := func() (string, bool) {
		if len(b) < 4 {
			return "", false
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	tm := func() (time.Time, bool) {
		v, ok := u64()
		if !ok {
			return time.Time{}, false
		}
		if v == 0 {
			return time.Time{}, true
		}
		return time.Unix(0, int64(v)).UTC(), true
	}
	var ok bool
	var v uint64
	if v, ok = u64(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	ch.ID = util.ID(v)
	if v, ok = u64(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	ch.Rune = rune(uint32(v))
	if ch.Author, ok = str(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	if ch.Created, ok = tm(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	if ch.DeletedBy, ok = str(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	if ch.DeletedAt, ok = tm(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	if ch.Restored, ok = tm(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	if v, ok = u64(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	ch.SourceDoc = util.ID(v)
	if v, ok = u64(); !ok {
		return Char{}, nil, ErrArchiveCodec
	}
	ch.SourceChar = util.ID(v)
	ch.Deleted = true
	return ch, b, nil
}
