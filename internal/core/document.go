package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// Document is an open handle on one TeNDaX document. All editing methods
// are transactional: the in-memory buffer is only updated after the
// database transaction commits, and the committed operation is published on
// the awareness bus. Methods are safe for concurrent use.
//
// Reads are MVCC: writers publish an immutable snapshot of the buffer at
// every commit, and all read-only methods resolve against the latest
// published snapshot instead of holding d.mu over the traversal. The
// document lock serialises writers only.
type Document struct {
	eng *Engine
	id  util.ID

	// snap is the latest committed (snapshot, event-seq) pair, atomically
	// replaced by writers under d.mu and read lock-free by everyone else.
	snap atomic.Pointer[published]

	// Cold-archive lazy-load state: opening a document reads only the hot
	// character set; the archive rows are decoded on the first read that
	// actually needs them (time travel past the horizon, undo of an
	// archived delete, a compaction pass). archState moves archNone →
	// archPending → archLoaded; arch0 and archLoadVersion are written once
	// under d.mu before the archLoaded store publishes them.
	archState       atomic.Int32
	arch0           *texttree.Archive // the archive as first loaded
	archLoadVersion uint64            // buffer version at load time

	mu  sync.Mutex
	buf *texttree.Buffer
	ops []opRecord // operation log cache (ops table is authoritative)
	// row is the document's docs-table row as this handle last wrote it:
	// the metadata Info reports and the base every docs-row update builds
	// on, so a keystroke never reads the row back. writeRowLocked replaces
	// it (never mutates it) and restores it if the transaction aborts.
	row db.Row
}

// newDocument returns a handle on the document whose docs-table row is row.
func newDocument(e *Engine, id util.ID, row db.Row) *Document {
	d := &Document{
		eng: e,
		id:  id,
		buf: texttree.NewBuffer(),
		row: row,
	}
	//tendax:allow-snapshotread construction: the document is not yet shared
	d.snap.Store(&published{tree: d.buf.Snapshot(), seq: e.bus.Seq(id)})
	return d
}

// published pairs an immutable text snapshot with the awareness-bus
// sequence number of the event that announced it. Serving reads from the
// pair (rather than reading the text and the bus sequence separately, as
// the seed did) is what lets a resync response promise "this text contains
// exactly the edits up to this Seq" — without the pairing, an edit
// committing between the two reads is silently dropped by the client as a
// pre-snapshot duplicate.
type published struct {
	tree *texttree.Snapshot
	seq  uint64
}

// publishEventLocked is the writers' single publish point: called under
// d.mu after a committed transaction's effects are applied to the buffer,
// it announces the operation on the awareness bus and — atomically with
// the sequence-number assignment, under the bus lock — publishes the new
// snapshot paired with that sequence number. Readers switch from one
// committed state to the next in a single atomic load and can never
// observe an event seq without the state it describes.
func (d *Document) publishEventLocked(ev awareness.Event) uint64 {
	tree := d.buf.Snapshot()
	return d.eng.bus.PublishWith(ev, func(seq uint64) {
		d.snap.Store(&published{tree: tree, seq: seq})
	})
}

// commitLocked is the one lock → commit → unlock → durability-wait sequence
// of every document mutation outside Apply: it checks that user holds
// right, runs body — a *Locked method that commits asynchronously and
// applies its effects — under d.mu, and waits for the commit to reach
// stable storage only after the lock is released. Waiting for an fsync
// under d.mu would queue every other writer of the document behind the
// disk instead of letting them share one group commit.
func commitLocked[T any](d *Document, user string, right Right, body func() (T, wal.LSN, error)) (T, error) {
	var zero T
	if err := d.eng.allowed(user, d.id, right); err != nil {
		return zero, err
	}
	v, lsn, err := func() (T, wal.LSN, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return body()
	}()
	if err != nil {
		return zero, err
	}
	if err := d.eng.WaitDurable(lsn); err != nil {
		return zero, err
	}
	return v, nil
}

// load rebuilds the buffer from the chars table.
func (d *Document) load() error {
	rids, err := d.eng.tChars.LookupEq("doc", int64(d.id))
	if err != nil {
		return err
	}
	rows := make([]texttree.Char, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tChars.Get(nil, rid)
		if err != nil {
			return err
		}
		rows = append(rows, charFromRow(row))
	}
	buf, err := texttree.Load(rows)
	if err != nil {
		return fmt.Errorf("core: document %v: %w", d.id, err)
	}
	// The cold archive is NOT decoded here: document open tracks the hot
	// set alone. A cheap index probe records whether archive rows exist;
	// the first read that needs them (ensureArchive) pays the decode.
	archRids, err := d.eng.tArchive.LookupEq("doc", int64(d.id))
	if err != nil {
		return fmt.Errorf("core: document %v: %w", d.id, err)
	}
	if len(archRids) > 0 {
		d.archState.Store(archPending)
	}
	//tendax:allow-snapshotread load-time construction: the document is published only after load returns
	d.buf = buf
	d.snap.Store(&published{tree: buf.Snapshot(), seq: d.eng.bus.Seq(d.id)})
	return d.loadOps()
}

// ID returns the document's identifier.
func (d *Document) ID() util.ID { return d.id }

// Name returns the document's name.
func (d *Document) Name() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.row[1].(string)
}

// Len returns the number of visible characters, from the latest committed
// snapshot: no lock is taken.
func (d *Document) Len() int { return d.snap.Load().tree.Len() }

// Text returns the full visible text without access filtering (embedded,
// trusted callers), resolved against the latest committed snapshot — the
// traversal runs entirely off the document lock. Use TextFor to apply
// character-level security.
func (d *Document) Text() string { return d.snap.Load().tree.Text() }

// TextFor returns the text user is allowed to read: characters masked by
// range ACLs are elided (paper: fine-grained security). The filter runs
// against one committed snapshot, off the document lock.
func (d *Document) TextFor(user string) (string, error) {
	return d.Snapshot().TextFor(user)
}

// Info returns current document metadata: the docs-table row as committed
// (what Engine.DocInfoByID reads back) with the buffer's visible length.
func (d *Document) Info() DocInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := docInfoFromRow(d.row)
	info.Size = d.buf.Len()
	return info
}

// Buffer returns an independent mutable copy of the underlying buffer for
// callers that need bulk character-level access (the fine-grained readers
// in this package go through Snapshot/CharMetaAt/RangeMeta instead). It is
// materialised from the latest committed snapshot, so it is internally
// consistent, built without ever holding the document lock, and unaffected
// by concurrent editing after the call.
func (d *Document) Buffer() (*texttree.Buffer, error) {
	// Bulk character access includes the cold set; load the parked
	// archive first (with the error surfaced, unlike the best-effort
	// time-travel paths).
	if _, err := d.ensureArchive(); err != nil {
		return nil, fmt.Errorf("core: archive of document %v: %w", d.id, err)
	}
	tree := d.snap.Load().tree
	buf, err := texttree.Load(tree.AllChars())
	if err != nil {
		return nil, fmt.Errorf("core: snapshot of document %v: %w", d.id, err)
	}
	buf.SetArchive(d.timeTravelTree(tree).Archive())
	return buf, nil
}

// Clipboard is the result of a Copy: the text plus the identities of the
// copied character instances, which Paste records as provenance.
type Clipboard struct {
	Text     string
	SrcDoc   util.ID
	SrcChars []util.ID
}

// Copy captures [pos, pos+n) into a clipboard and logs the copy action
// (TeNDaX gathers metadata on all copy and paste operations).
func (d *Document) Copy(user string, pos, n int) (Clipboard, error) {
	return commitLocked(d, user, RRead, func() (Clipboard, wal.LSN, error) {
		return d.copyLocked(user, pos, n)
	})
}

func (d *Document) copyLocked(user string, pos, n int) (Clipboard, wal.LSN, error) {
	ids := d.buf.RangeIDs(pos, n)
	if len(ids) != n {
		return Clipboard{}, 0, fmt.Errorf("%w: copy [%d,%d) of %d chars", ErrRange, pos, pos+n, d.buf.Len())
	}
	clip := Clipboard{Text: d.buf.Slice(pos, n), SrcDoc: d.id, SrcChars: ids}
	rec := opRecord{ID: d.eng.ids.Next(), User: user, Kind: "copy", CharIDs: ids,
		Created: d.eng.clock.Now()}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		return d.writeOpRow(tx, &rec)
	})
	if err != nil {
		return Clipboard{}, 0, err
	}
	d.ops = append(d.ops, rec)
	return clip, lsn, nil
}

// RecordRead logs that user read the document now (metadata for dynamic
// folders such as "documents I read this week") and returns the text.
func (d *Document) RecordRead(user string) (string, error) {
	text, err := d.TextFor(user)
	if err != nil {
		return "", err
	}
	now := d.eng.clock.Now()
	id := d.eng.ids.Next()
	err = d.eng.withTxn(func(tx *txn.Txn) error {
		_, err := d.eng.tReads.Insert(tx, db.Row{int64(id), int64(d.id), user, now})
		return err
	})
	if err != nil {
		return "", err
	}
	return text, nil
}

// SetState transitions the document state (draft, review, final, …);
// workflow uses this for document routing.
func (d *Document) SetState(user, state string) error {
	_, err := commitLocked(d, user, RWrite, func() (struct{}, wal.LSN, error) {
		lsn, err := d.setStateLocked(user, state)
		return struct{}{}, lsn, err
	})
	return err
}

func (d *Document) setStateLocked(user, state string) (wal.LSN, error) {
	now := d.eng.clock.Now()
	row := append(db.Row(nil), d.row...)
	row[7] = state
	row[4] = now
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		return d.writeRowLocked(tx, row)
	})
	if err != nil {
		return 0, err
	}
	// Workflow transitions change ranking-relevant metadata (Modified,
	// State) without touching the text, so they must still reach the
	// awareness stream: the incremental indexer refreshes metadata from
	// exactly these events.
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvWorkflow, User: user, Name: state, At: now,
	})
	return lsn, nil
}

// SetProperty stores a user-defined document property (paper §2:
// "user defined properties").
func (d *Document) SetProperty(user, key, value string) error {
	if err := d.eng.allowed(user, d.id, RWrite); err != nil {
		return err
	}
	id := d.eng.ids.Next()
	return d.eng.withTxn(func(tx *txn.Txn) error {
		// Replace an existing property with the same key.
		rids, err := d.eng.tProps.LookupEq("doc", int64(d.id))
		if err != nil {
			return err
		}
		for _, rid := range rids {
			row, err := d.eng.tProps.Get(tx, rid)
			if err != nil {
				continue
			}
			if row[2].(string) == key {
				row[3] = value
				return d.eng.tProps.Update(tx, rid, row)
			}
		}
		_, err = d.eng.tProps.Insert(tx, db.Row{int64(id), int64(d.id), key, value})
		return err
	})
}

// Properties returns the document's user-defined properties.
func (d *Document) Properties() (map[string]string, error) {
	rids, err := d.eng.tProps.LookupEq("doc", int64(d.id))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tProps.Get(nil, rid)
		if err != nil {
			continue
		}
		out[row[2].(string)] = row[3].(string)
	}
	return out, nil
}

// CharMeta is the character-level metadata TeNDaX gathers automatically.
type CharMeta struct {
	ID         util.ID
	Rune       rune
	Author     string
	Created    time.Time
	Deleted    bool
	DeletedBy  string
	DeletedAt  time.Time
	Restored   time.Time
	SourceDoc  util.ID
	SourceChar util.ID
}

// CharMetaAt returns the metadata of the visible character at pos, from
// the latest committed snapshot.
func (d *Document) CharMetaAt(pos int) (CharMeta, error) {
	return d.Snapshot().CharMetaAt(pos)
}

// RangeMeta returns metadata for the visible range [pos, pos+n), resolved
// against one committed snapshot: the range can never mix two states.
func (d *Document) RangeMeta(pos, n int) ([]CharMeta, error) {
	return d.Snapshot().RangeMeta(pos, n)
}

func charMetaOf(ch *texttree.Char) CharMeta {
	return CharMeta{
		ID: ch.ID, Rune: ch.Rune, Author: ch.Author, Created: ch.Created,
		Deleted: ch.Deleted, DeletedBy: ch.DeletedBy, DeletedAt: ch.DeletedAt,
		Restored: ch.Restored, SourceDoc: ch.SourceDoc, SourceChar: ch.SourceChar,
	}
}

// rowFromChar converts a character instance into its chars-table row.
func (d *Document) rowFromChar(ch *texttree.Char) db.Row {
	return db.Row{
		int64(ch.ID), int64(d.id), int64(ch.Rune), ch.Author, ch.Created,
		int64(ch.Prev), int64(ch.Next), ch.Deleted, ch.DeletedBy,
		nonZeroTime(ch.DeletedAt), int64(ch.SourceDoc), int64(ch.SourceChar),
		nonZeroTime(ch.Restored),
	}
}

func charFromRow(row db.Row) texttree.Char {
	return texttree.Char{
		ID:         util.ID(row[0].(int64)),
		Rune:       rune(row[2].(int64)),
		Author:     row[3].(string),
		Created:    row[4].(time.Time),
		Prev:       util.ID(row[5].(int64)),
		Next:       util.ID(row[6].(int64)),
		Deleted:    row[7].(bool),
		DeletedBy:  row[8].(string),
		DeletedAt:  zeroableTime(row[9].(time.Time)),
		SourceDoc:  util.ID(row[10].(int64)),
		SourceChar: util.ID(row[11].(int64)),
		Restored:   zeroableTime(row[12].(time.Time)),
	}
}

// The row codec stores time as UnixNano; represent "no time" as Unix(0,0).
func nonZeroTime(t time.Time) time.Time {
	if t.IsZero() {
		return time.Unix(0, 0).UTC()
	}
	return t
}

func zeroableTime(t time.Time) time.Time {
	if t.Equal(time.Unix(0, 0).UTC()) {
		return time.Time{}
	}
	return t
}

// updateDocRowLocked records an edit by user in the docs-table row inside
// tx: modified time, last author, visible length (newSize, the
// post-operation length) and, on their first edit, the user's name in the
// authors column. Caller holds d.mu.
func (d *Document) updateDocRowLocked(tx *txn.Txn, user string, now time.Time, newSize int) error {
	row := append(db.Row(nil), d.row...)
	row[4] = now
	row[5] = user
	row[6] = int64(newSize)
	if authors := row[8].(string); authors == "" {
		row[8] = user
	} else if !hasAuthor(authors, user) {
		row[8] = authors + "," + user
	}
	return d.writeRowLocked(tx, row)
}

// writeRowLocked writes row as the document's docs-table row inside tx and
// makes it the cached row, restoring the previous one if tx aborts. Caller
// holds d.mu; row must not be modified afterwards.
func (d *Document) writeRowLocked(tx *txn.Txn, row db.Row) error {
	if err := d.eng.tDocs.UpdateByPK(tx, int64(d.id), row); err != nil {
		return err
	}
	prev := d.row
	d.row = row
	tx.OnUndo(func() error {
		d.row = prev // runs inside Abort, still under the caller's d.mu
		return nil
	})
	return nil
}

// hasAuthor reports whether user is one of the comma-separated names of a
// docs row's authors column.
func hasAuthor(authors, user string) bool {
	for authors != "" {
		name, rest, _ := strings.Cut(authors, ",")
		if name == user {
			return true
		}
		authors = rest
	}
	return false
}

// CheckInvariants verifies buffer invariants plus buffer/database
// consistency of the visible text (tests and failure injection).
func (d *Document) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Verify the real merged state, not just the hot subset.
	if _, err := d.ensureArchiveLocked(); err != nil {
		return err
	}
	if err := d.buf.CheckInvariants(); err != nil {
		return err
	}
	// The published snapshot must be exactly the committed buffer state.
	if snap := d.snap.Load().tree; snap.Version() != d.buf.Version() || snap.Text() != d.buf.Text() {
		return fmt.Errorf("core: published snapshot (v%d) lags buffer (v%d)",
			snap.Version(), d.buf.Version())
	}
	// Reload from the database and compare.
	rids, err := d.eng.tChars.LookupEq("doc", int64(d.id))
	if err != nil {
		return err
	}
	rows := make([]texttree.Char, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tChars.Get(nil, rid)
		if err != nil {
			return err
		}
		rows = append(rows, charFromRow(row))
	}
	fresh, err := texttree.Load(rows)
	if err != nil {
		return fmt.Errorf("core: reload: %w", err)
	}
	if fresh.Text() != d.buf.Text() {
		return fmt.Errorf("core: buffer/database divergence:\n mem %q\n db  %q",
			firstN(d.buf.Text(), 60), firstN(fresh.Text(), 60))
	}
	return nil
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
