package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/util"
)

// DocSnapshot is the document's MVCC read surface: an immutable view of
// the text as of one committed operation, plus read helpers that resolve
// spans, metadata, versions and diffs against that single view. Taking a
// snapshot is O(1) and never blocks writers; every method on it runs
// without touching the document lock, so any number of readers (renderers,
// resyncs, diffs, searches, slow sockets) proceed while editors keep
// committing. TeNDaX makes every edit a transaction, so read-mostly
// collaborative traffic must come off the write path entirely — this type
// is where it comes off.
//
// Writers publish a fresh snapshot atomically at each commit; a snapshot
// already handed out is frozen forever and reclaimed by the garbage
// collector once its last reader drops it.
type DocSnapshot struct {
	d   *Document
	t   *texttree.Snapshot
	seq uint64
}

// Snapshot returns the document's current committed state as an immutable
// snapshot. Acquisition is a single atomic load and allocates nothing: the
// snapshot is the one published with the state.
func (d *Document) Snapshot() *DocSnapshot { return &d.snap.Load().snap }

// SnapshotSeq returns the latest snapshot together with an awareness-bus
// sequence number S guaranteed consistent with it: the snapshot contains
// every text-mutating event with seq ≤ S and none with seq > S. Writers
// store the (snapshot, seq) pair atomically with the sequence-number
// assignment under the bus lock, so reading the bus sequence first and
// accepting only a pair at or below it closes the race where an edit
// commits between the two reads and the client then drops its push as a
// pre-snapshot duplicate. The retry loop only spins while edits land in
// the nanoseconds-wide window; the fallback answer (the pair's own seq) is
// still drop-free, merely unaware of presence events published since.
func (d *Document) SnapshotSeq() (*DocSnapshot, uint64) {
	for i := 0; i < 4; i++ {
		s := d.eng.bus.Seq(d.id)
		if p := d.snap.Load(); p.snap.seq <= s {
			return &p.snap, s
		}
	}
	p := d.snap.Load()
	return &p.snap, p.snap.seq
}

// Seq returns the awareness-bus sequence number of the event that
// announced this snapshot's state: every text-mutating event with a
// sequence number at or below it is contained in the snapshot.
func (s *DocSnapshot) Seq() uint64 { return s.seq }

// Tree exposes the underlying texttree snapshot for bulk character-level
// access (tests, analyzers).
func (s *DocSnapshot) Tree() *texttree.Snapshot { return s.t }

// Doc returns the snapshotted document's ID.
func (s *DocSnapshot) Doc() util.ID { return s.d.id }

// Version identifies the committed buffer state this snapshot captured;
// it increases monotonically with every committed text mutation.
func (s *DocSnapshot) Version() uint64 { return s.t.Version() }

// Len returns the number of visible characters.
func (s *DocSnapshot) Len() int { return s.t.Len() }

// TotalLen returns the number of character instances, tombstones included.
func (s *DocSnapshot) TotalLen() int { return s.t.TotalLen() }

// Text returns the full visible text without access filtering.
func (s *DocSnapshot) Text() string { return s.t.Text() }

// TextAt reconstructs the text as of instant t (time travel), as seen by
// this snapshot: edits committed after the snapshot do not exist in it.
// The first pre-horizon reconstruction loads the lazily parked archive.
func (s *DocSnapshot) TextAt(t time.Time) string {
	return s.d.timeTravelTree(s.t).TextAt(t)
}

// MaskedTextFor returns the text user may read, applied to one consistent
// view (paper: fine-grained security): each character a range ACL hides
// from user becomes mask, so every position is the unfiltered text's — the
// positions pushed events carry, which a replica built on this text can
// replay.
func (s *DocSnapshot) MaskedTextFor(user string, mask rune) (string, error) {
	if err := s.d.eng.allowed(user, s.d.id, RRead); err != nil {
		return "", err
	}
	if s.d.eng.check == nil {
		return s.t.Text(), nil
	}
	readable := s.d.eng.check.ReadableMask(user, s.d.id, s.t.VisibleIDs())
	if readable == nil {
		return s.t.Text(), nil
	}
	var sb strings.Builder
	i := 0
	s.t.WalkVisible(func(ch *texttree.Char) bool {
		if readable[i] {
			sb.WriteRune(ch.Rune)
		} else {
			sb.WriteRune(mask)
		}
		i++
		return true
	})
	return sb.String(), nil
}

// CharMetaAt returns the metadata of the visible character at pos.
func (s *DocSnapshot) CharMetaAt(pos int) (CharMeta, error) {
	ch, ok := s.t.CharAt(pos)
	if !ok {
		return CharMeta{}, fmt.Errorf("%w: %d of %d", ErrRange, pos, s.t.Len())
	}
	return charMetaOf(&ch), nil
}

// RangeMeta returns metadata for the visible range [pos, pos+n). The whole
// range resolves against this one snapshot: it can never mix characters
// from two different committed states.
func (s *DocSnapshot) RangeMeta(pos, n int) ([]CharMeta, error) {
	if pos < 0 || n < 0 || pos+n > s.t.Len() {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, pos, pos+n, s.t.Len())
	}
	out := make([]CharMeta, 0, n)
	s.t.WalkVisibleFrom(pos, n, func(ch *texttree.Char) { out = append(out, charMetaOf(ch)) })
	if len(out) != n {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrRange, pos, pos+n, s.t.Len())
	}
	return out, nil
}

// Spans returns the document's active spans: the latest committed rows
// (they live in the spans table, not the chain), not the rows as of this
// snapshot. Span readers skip a span whose start this version never saw.
func (s *DocSnapshot) Spans() ([]Span, error) { return s.d.Spans() }

// Extent is where a span lies in one snapshot: the visible range
// [From, To). Seen is false, and the range empty, when the snapshot has
// never seen the span's start anchor.
type Extent struct {
	From, To int
	Seen     bool
}

// ResolveSpans resolves every span's range against this snapshot, all
// anchors in one walk (texttree.Snapshot.Resolve). A tombstoned start
// contributes the position where its text would resume; a tombstoned or
// unseen end closes the range there.
func (s *DocSnapshot) ResolveSpans(spans []Span) []Extent {
	ids := make([]util.ID, 0, 2*len(spans))
	for _, sp := range spans {
		ids = append(ids, sp.Start, sp.End)
	}
	at := s.t.Resolve(ids)
	// An anchor neither the tree nor the snapshot's archive holds may be a
	// cold tombstone whose archive was still parked on disk when the
	// snapshot was published: fault it in, as time travel does.
	if slices.ContainsFunc(at, func(a texttree.Anchor) bool { return !a.Known }) {
		if t := s.d.timeTravelTree(s.t); t != s.t {
			at = t.Resolve(ids)
		}
	}
	out := make([]Extent, len(spans))
	for i := range spans {
		if start, end := at[2*i], at[2*i+1]; start.Known {
			to := end.Rank
			if end.Visible {
				to++
			}
			out[i] = Extent{From: start.Rank, To: max(to, start.Rank), Seen: true}
		}
	}
	return out
}

// SpanRange resolves one span's visible range [start, end) against this
// snapshot (ResolveSpans); a span it has never seen the start of is empty.
func (s *DocSnapshot) SpanRange(sp Span) (start, end int) {
	e := s.ResolveSpans([]Span{sp})[0]
	return e.From, e.To
}

// VersionText reconstructs the document text as of the named version, as
// seen by this snapshot.
func (s *DocSnapshot) VersionText(versionID util.ID) (string, error) {
	row, _, err := s.d.eng.tVersions.GetByPK(nil, int64(versionID))
	if errors.Is(err, db.ErrNotFound) {
		return "", ErrVersionNotFound
	}
	if err != nil {
		return "", err
	}
	if util.ID(row[1].(int64)) != s.d.id {
		return "", ErrVersionNotFound
	}
	// Version reconstruction may reach past the compaction horizon; load
	// the parked archive first so an I/O failure surfaces here instead of
	// silently reconstructing from the hot set alone.
	if _, err := s.d.ensureArchive(); err != nil {
		return "", err
	}
	return s.d.timeTravelTree(s.t).TextAt(row[4].(time.Time)), nil
}

// DiffVersions diffs two versions (older first) against this snapshot.
// Passing util.NilID as `to` diffs against the snapshot's text. Both sides
// reconstruct from the same view, so the diff is never torn by a write
// landing between the two reads.
func (s *DocSnapshot) DiffVersions(from, to util.ID) ([]Hunk, error) {
	fromText, err := s.VersionText(from)
	if err != nil {
		return nil, err
	}
	var toText string
	if to.IsNil() {
		toText = s.t.Text()
	} else {
		toText, err = s.VersionText(to)
		if err != nil {
			return nil, err
		}
	}
	return DiffTexts(fromText, toText), nil
}
