package core

import (
	"fmt"
	"reflect"
	"sort"
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
	ops []opHead // operation log cache (ops table is authoritative)
	// row is the document's docs-table row as this handle last wrote it:
	// the static metadata Info reports and the base every docs-row update
	// builds on, so no update reads the row back. setRowLocked replaces
	// it (never mutates it) and restores it if the transaction aborts.
	row db.Row
	// last is the document's newest change: the head of its newest op
	// other than a copy or, before any, a head of its creator and creation
	// time. appendOpLocked advances it; info reads its User and Created.
	last opHead
}

// newDocument returns a handle on the document whose docs-table row is row.
func newDocument(e *Engine, id util.ID, row db.Row) *Document {
	d := &Document{
		eng:  e,
		id:   id,
		buf:  texttree.NewBuffer(),
		row:  row,
		last: opHead{User: row[2].(string), Created: row[3].(time.Time).UnixNano()},
	}
	//tendax:allow-snapshotread construction: the document is not yet shared
	d.snap.Store(d.newPublished(d.buf.Snapshot(), e.bus.Seq(id), nil))
	return d
}

// published pairs an immutable text snapshot with the awareness-bus
// sequence number of the event that announced it. Serving reads from the
// pair (rather than reading the text and the bus sequence separately, as
// the seed did) is what lets a resync response promise "this text contains
// exactly the edits up to this Seq" — without the pairing, an edit
// committing between the two reads is silently dropped by the client as a
// pre-snapshot duplicate. The pair is kept as the DocSnapshot every reader
// is handed, so taking a snapshot allocates nothing. row and last are the
// docs-table row and the newest change committed with the snapshot: what
// info derives metadata from; authors is the row's authors column, parsed
// and sorted once per row.
type published struct {
	snap    DocSnapshot
	row     db.Row // never modified: setRowLocked replaces d.row
	last    opHead
	authors []string // read-only, shared by every DocInfo made from the row
}

// newPublished pairs tree and seq with the handle's row and newest change.
// prev is the state tree follows, if any: while the row is the same one
// its parsed authors carry over.
func (d *Document) newPublished(tree *texttree.Snapshot, seq uint64, prev *published) *published {
	p := &published{snap: DocSnapshot{d: d, t: tree, seq: seq}, row: d.row, last: d.last}
	if prev != nil && &prev.row[0] == &d.row[0] {
		p.authors = prev.authors
	} else if s := d.row[5].(string); s != "" {
		// The row stores authors in first-edit order; report them sorted.
		p.authors = strings.Split(s, ",")
		sort.Strings(p.authors)
	}
	return p
}

// republishLocked replaces the published tree with the buffer's current
// one and keeps everything else — sequence number, row, newest change —
// for a change that leaves the visible text and the metadata alone
// (compaction, a loaded archive).
func (d *Document) republishLocked() {
	p := *d.snap.Load()
	p.snap.t = d.buf.Snapshot()
	d.snap.Store(&p)
}

// publishEventLocked is the writers' single publish point: called under
// d.mu after a committed transaction's effects are applied to the buffer,
// it announces the operation on the awareness bus and — atomically with
// the sequence-number assignment, under the bus lock — publishes the new
// snapshot paired with that sequence number. Readers switch from one
// committed state to the next in a single atomic load and can never
// observe an event seq without the state it describes.
func (d *Document) publishEventLocked(ev awareness.Event) uint64 {
	p := d.newPublished(d.buf.Snapshot(), 0, d.snap.Load())
	return d.eng.bus.PublishWith(ev, func(seq uint64) {
		p.snap.seq = seq
		d.snap.Store(p)
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

// load rebuilds the buffer from the chars table's runs and the operation
// log from the ops table.
func (d *Document) load() error {
	rids, err := d.eng.tChars.LookupEq("doc", int64(d.id))
	if err != nil {
		return err
	}
	runs := make([]texttree.Run, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tChars.Get(nil, rid)
		if err != nil {
			return err
		}
		run, _, err := runFromRow(row)
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	buf, err := texttree.LoadRuns(runs)
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
	if err := d.loadOps(); err != nil {
		return err
	}
	//tendax:allow-snapshotread load-time construction: the document is published only after load returns
	d.buf = buf
	d.snap.Store(d.newPublished(buf.Snapshot(), d.eng.bus.Seq(d.id), d.snap.Load()))
	return nil
}

// ID returns the document's identifier.
func (d *Document) ID() util.ID { return d.id }

// Name returns the document's name, from the latest published state.
func (d *Document) Name() string { return d.snap.Load().row[1].(string) }

// Len returns the number of visible characters, from the latest committed
// snapshot: no lock is taken.
func (d *Document) Len() int { return d.snap.Load().snap.t.Len() }

// Text returns the full visible text without access filtering (embedded,
// trusted callers), resolved against the latest committed snapshot — the
// traversal runs entirely off the document lock. DocSnapshot's
// MaskedTextFor applies character-level security.
func (d *Document) Text() string { return d.snap.Load().snap.t.Text() }

// Info returns the document's metadata as of its latest published state,
// without the document lock.
func (d *Document) Info() DocInfo { return d.snap.Load().info() }

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
	tree := d.snap.Load().snap.t
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
	rec := opRecord{ID: d.eng.ids.Next(), User: user, Kind: opCopy, CharIDs: util.IDsOf(ids),
		Created: d.eng.clock.Now()}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		enc := d.eng.tOps.Encoder(1)
		return d.writeOpRow(tx, &enc, &rec)
	})
	if err != nil {
		return Clipboard{}, 0, err
	}
	d.appendOpLocked(rec.head())
	return clip, lsn, nil
}

// RecordRead logs that user read the document now (metadata for dynamic
// folders such as "documents I read this week"), once user's right to read
// it is checked. It renders no text: a reader holds its own replica.
func (d *Document) RecordRead(user string) error {
	if err := d.eng.allowed(user, d.id, RRead); err != nil {
		return err
	}
	now := d.eng.clock.Now()
	id := d.eng.ids.Next()
	return d.eng.withTxn(func(tx *txn.Txn) error {
		_, err := d.eng.tReads.Insert(tx, db.Row{int64(id), int64(d.id), user, now})
		return err
	})
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

// setStateLocked logs the transition as a "state" op, which dates it.
func (d *Document) setStateLocked(user, state string) (wal.LSN, error) {
	rec := opRecord{ID: d.eng.ids.Next(), User: user, Kind: opState, Created: d.eng.clock.Now()}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		enc := d.eng.tOps.Encoder(1)
		if err := d.writeOpRow(tx, &enc, &rec); err != nil {
			return err
		}
		return d.setRowLocked(tx, 4, state)
	})
	if err != nil {
		return 0, err
	}
	d.appendOpLocked(rec.head())
	// Workflow transitions change ranking-relevant metadata (Modified,
	// State) without touching the text, so they must still reach the
	// awareness stream: the incremental indexer refreshes metadata from
	// exactly these events.
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvWorkflow, User: user, Name: state, At: rec.Created,
	})
	return lsn, nil
}

// SetProperty stores a user-defined document property (paper §2:
// "user defined properties"). It runs under the document lock, so two
// concurrent calls with one key cannot both miss the existing row.
func (d *Document) SetProperty(user, key, value string) error {
	_, err := commitLocked(d, user, RWrite, func() (struct{}, wal.LSN, error) {
		lsn, err := d.setPropertyLocked(key, value)
		return struct{}{}, lsn, err
	})
	return err
}

// setPropertyLocked replaces the property row with key, or inserts one.
func (d *Document) setPropertyLocked(key, value string) (wal.LSN, error) {
	id := d.eng.ids.Next()
	return d.eng.withTxnAsync(func(tx *txn.Txn) error {
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

// addAuthorLocked appends user to the comma-separated authors column of the
// docs-table row inside tx on their first edit of the document; for a
// listed author it writes nothing. Caller holds d.mu.
func (d *Document) addAuthorLocked(tx *txn.Txn, user string) error {
	authors := d.row[5].(string)
	for rest := authors; rest != ""; {
		var name string
		if name, rest, _ = strings.Cut(rest, ","); name == user {
			return nil
		}
	}
	return d.setRowLocked(tx, 5, strings.TrimPrefix(authors+","+user, ","))
}

// setRowLocked sets column col of the document's docs-table row to v
// inside tx and makes the new row the cached one. Its undo entry is
// registered before the table update's, so an abort runs it after the
// table has its row back, and it caches that row again. Caller holds d.mu.
func (d *Document) setRowLocked(tx *txn.Txn, col int, v any) error {
	row := append(db.Row(nil), d.row...)
	row[col] = v
	tx.OnUndo(txn.Undo{By: (*rowUndo)(d)})
	if err := d.eng.tDocs.UpdateByPK(tx, int64(d.id), row); err != nil {
		return err
	}
	d.row = row
	return nil
}

// rowUndo is a Document as the txn.Undoer of setRowLocked's entry, kept
// off Document's own method set.
type rowUndo Document

// Undo caches the docs-table row the rollback has restored: a read on the
// abort path only, so the document keeps no copy of an older row. It runs
// inside Abort, still under the caller's d.mu.
func (r *rowUndo) Undo(*txn.Txn, *txn.Undo) error {
	d := (*Document)(r)
	row, _, err := d.eng.tDocs.GetByPK(nil, int64(d.id))
	if err != nil {
		return err
	}
	d.row = row
	return nil
}

// CheckInvariants verifies buffer invariants plus buffer/database
// consistency: the document, loaded again from the tables, must have the
// buffer's instance sequence — every hot ID in order with its deleted
// flag, which a misplaced tombstone breaks even when the visible text
// survives — and the published metadata (tests and failure injection).
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
	if snap := d.snap.Load().snap.t; snap.Version() != d.buf.Version() || snap.Text() != d.buf.Text() {
		return fmt.Errorf("core: published snapshot (v%d) lags buffer (v%d)",
			snap.Version(), d.buf.Version())
	}
	// Reload from the database and compare.
	row, _, err := d.eng.tDocs.GetByPK(nil, int64(d.id))
	if err != nil {
		return err
	}
	fresh := newDocument(d.eng, d.id, row)
	if err := fresh.load(); err != nil {
		return err
	}
	mem, disk := d.buf.AllChars(), fresh.snap.Load().snap.t.AllChars()
	if len(mem) != len(disk) {
		return fmt.Errorf("core: buffer holds %d instances, database %d", len(mem), len(disk))
	}
	for i := range mem {
		if mem[i].ID != disk[i].ID || mem[i].Deleted != disk[i].Deleted {
			return fmt.Errorf("core: buffer/database divergence at instance %d: mem %v (deleted %v), db %v (deleted %v)",
				i, mem[i].ID, mem[i].Deleted, disk[i].ID, disk[i].Deleted)
		}
	}
	if diff := infoDiff(fresh.Info(), d.Info()); diff != "" {
		return fmt.Errorf("core: metadata loaded from the tables vs published: %s", diff)
	}
	return nil
}

// infoDiff prints two DocInfos that differ, or returns "" when they agree
// (instants compared with Equal: a decoded time has no monotonic reading).
func infoDiff(a, b DocInfo) string {
	if a.Created.Equal(b.Created) && a.Modified.Equal(b.Modified) {
		if a.Created, a.Modified = b.Created, b.Modified; reflect.DeepEqual(a, b) {
			return ""
		}
	}
	return fmt.Sprintf("%+v vs %+v", a, b)
}
