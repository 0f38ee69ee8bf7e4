package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tendax/internal/btree"
	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/wal"
)

// Index is a secondary index over one column. Non-unique: the B-tree key is
// the order-preserving column encoding followed by the RID, so duplicate
// column values coexist and scan in RID order.
type Index struct {
	Column string
	col    int
	tree   *btree.Tree[RID]
}

// Index keys are built from a row's stored encoding, never from a decoded
// Row: Update compares those bytes to skip re-indexing, and Delete and an
// abort's undo unindex the very bytes they hold.

// pkKey appends the primary-key B-tree key of rec to dst.
func (t *Table) pkKey(dst, rec []byte) []byte {
	f, _ := field(t.schema, rec, 0) // rec is a valid encoding
	return appendKey(dst, TInt, f)
}

// keyOfPK appends the primary-key B-tree key of pk to dst.
func keyOfPK(dst []byte, pk int64) []byte {
	var f [binary.MaxVarintLen64]byte
	return appendKey(dst, TInt, appendInt(f[:0], pk))
}

// key appends ix's B-tree key of rec, stored at rid, to dst.
func (ix *Index) key(dst []byte, schema Schema, rec []byte, rid RID) []byte {
	f, _ := field(schema, rec, ix.col) // rec is a valid encoding
	dst = appendKey(dst, schema[ix.col].Type, f)
	dst = append(dst, 0) // separator keeps prefix scans exact
	return rid.appendTo(dst)
}

// Table is a typed, indexed, transactional table.
type Table struct {
	id     uint64
	name   string
	schema Schema
	heap   *Heap

	mu      sync.RWMutex     // protects indexes and pk
	pk      *btree.Tree[RID] // primary key (col 0, int64) -> RID
	indexes []*Index
}

// NewTable constructs a table over heap. Column 0 must be TInt (the primary
// key).
func NewTable(id uint64, name string, schema Schema, heap *Heap) (*Table, error) {
	if len(schema) == 0 || schema[0].Type != TInt {
		return nil, fmt.Errorf("db: table %q needs an int64 primary key as column 0", name)
	}
	return &Table{
		id:     id,
		name:   name,
		schema: schema,
		heap:   heap,
		pk:     btree.New[RID](),
	}, nil
}

// ID returns the table's catalog ID.
//
//tendax:allow-testonly test observation point: core's log tests (TestOneKeyBatchLogBytes, TestRunBatchLogBytes, TestSplitDeleteCrashPoints) name a record's table by its owner ID, which nothing else reveals
func (t *Table) ID() uint64 { return t.id }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// AddIndex declares a secondary index on column name. Call before
// RebuildIndexes (or on an empty table).
func (t *Table) AddIndex(column string) error {
	c := t.schema.Col(column)
	if c < 0 {
		return fmt.Errorf("db: table %q has no column %q", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ix := range t.indexes {
		if ix.Column == column {
			return nil
		}
	}
	t.indexes = append(t.indexes, &Index{Column: column, col: c, tree: btree.New[RID]()})
	return nil
}

// RebuildIndexes repopulates the primary key and all secondary indexes from
// a heap scan. Called at database open; no concurrent transactions run.
func (t *Table) RebuildIndexes() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pk = btree.New[RID]()
	for _, ix := range t.indexes {
		ix.tree = btree.New[RID]()
	}
	return t.heap.ScanDirty(func(rid RID, rec []byte) error {
		// Walking to the last column checks the record's framing.
		if _, err := field(t.schema, rec, len(t.schema)-1); err != nil {
			return fmt.Errorf("db: table %q rid %v: %w", t.name, rid, err)
		}
		t.indexLocked(rec, rid)
		return nil
	})
}

// indexLocked enters rec, stored at rid, in the primary key and every
// secondary index. Caller holds t.mu.
func (t *Table) indexLocked(rec []byte, rid RID) {
	var buf [64]byte
	t.pk.Put(t.pkKey(buf[:0], rec), rid)
	for _, ix := range t.indexes {
		ix.tree.Put(ix.key(buf[:0], t.schema, rec, rid), rid)
	}
}

// unindexLocked removes what indexLocked entered. Caller holds t.mu.
func (t *Table) unindexLocked(rec []byte, rid RID) {
	var buf [64]byte
	t.pk.Delete(t.pkKey(buf[:0], rec))
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.key(buf[:0], t.schema, rec, rid))
	}
}

// sameKeys reports whether two encodings of a row agree on the primary key
// and every indexed column, so that replacing one by the other in place
// leaves every index as it is. A value has one spelling, so equal bytes
// are equal values.
func (t *Table) sameKeys(a, b []byte) bool {
	same := func(col int) bool {
		fa, _ := field(t.schema, a, col)
		fb, _ := field(t.schema, b, col)
		return bytes.Equal(fa, fb)
	}
	if !same(0) {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if !same(ix.col) {
			return false
		}
	}
	return true
}

// reindexLocked moves a row's index entries from old, stored at oldRID,
// to rec, stored at newRID. Caller holds t.mu.
func (t *Table) reindexLocked(old []byte, oldRID RID, rec []byte, newRID RID) {
	t.unindexLocked(old, oldRID)
	t.indexLocked(rec, newRID)
}

// Undo reverses u, an entry a heap mutation of t registered on t's behalf,
// during a runtime rollback: it restores the row's index entries as the
// mutation left them before, then has the heap compensate the row. An
// inserted row is unindexed (one a failed batch placed but did not index
// has none: its primary key is new to the table); a deleted row — or a
// relocated row's old copy — is indexed again; an updated row whose keys
// changed is moved back from the record on the page to u.Rec.
func (t *Table) Undo(tx *txn.Txn, u *txn.Undo) error {
	rid := RID{Page: storage.PageID(u.Page), Slot: int(u.Slot)}
	switch wal.PageOp(u.Op) {
	case wal.OpInsert:
		t.mu.Lock()
		t.unindexLocked(u.Rec, rid)
		t.mu.Unlock()
	case wal.OpDelete:
		t.mu.Lock()
		t.indexLocked(u.Rec, rid)
		t.mu.Unlock()
	case wal.OpUpdate:
		cur, err := t.heap.Get(nil, rid)
		if err != nil {
			return err
		}
		if !t.sameKeys(cur, u.Rec) {
			t.mu.Lock()
			t.reindexLocked(cur, rid, u.Rec, rid)
			t.mu.Unlock()
		}
	}
	return t.heap.Undo(tx, u)
}

// Encoder returns a RowEncoder for rows of t whose buffer has room for n
// rows of a typical size.
func (t *Table) Encoder(n int) RowEncoder {
	return RowEncoder{schema: t.schema, buf: make([]byte, 0, n*rowBytes)}
}

// ResetEncoder readies e to write rows of t into the buffer it already
// has, allocating one only if it has none. The rows e wrote before are
// overwritten, so a caller resets it only once nothing reads them any
// more: a transaction's undo entries keep the records it inserted until
// it ends.
func (t *Table) ResetEncoder(e *RowEncoder) {
	buf := e.buf[:0]
	if buf == nil {
		buf = make([]byte, 0, rowBytes)
	}
	*e = RowEncoder{schema: t.schema, buf: buf}
}

// Insert adds row under tx, maintaining all indexes (its undo entry
// restores them if tx aborts).
func (t *Table) Insert(tx *txn.Txn, row Row) (RID, error) {
	rec, err := EncodeRow(t.schema, row)
	if err != nil {
		return RID{}, err
	}
	var rid [1]RID
	if err := t.insert(tx, [][]byte{rec}, rid[:]); err != nil {
		return RID{}, err
	}
	return rid[0], nil
}

// insertBatch adds rows under tx as one heap batch, maintaining all
// indexes, and returns one RID per row in order. The heap acquires each
// page once per run of rows instead of once per row.
func (t *Table) insertBatch(tx *txn.Txn, rows []Row) ([]RID, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	recs := make([][]byte, len(rows))
	for i, row := range rows {
		rec, err := EncodeRow(t.schema, row)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	rids := make([]RID, len(rows))
	if err := t.insert(tx, recs, rids); err != nil {
		return nil, err
	}
	return rids, nil
}

// InsertRecords adds recs, rows a RowEncoder of t wrote, under tx as one
// heap batch, maintaining all indexes — what insertBatch does after
// encoding, which makes it the writer of the engine's hottest path (one
// run row and one op row per keystroke batch). A record that is not
// framed as a row of t is refused with ErrSchema. recs is not retained,
// but tx's undo entries reference the records until tx ends, so the
// caller must not overwrite them before.
func (t *Table) InsertRecords(tx *txn.Txn, recs ...[]byte) error {
	for _, rec := range recs {
		if err := checkRecord(t.schema, rec); err != nil {
			return fmt.Errorf("db: table %q: %w", t.name, err)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	var one [1]RID
	rids := one[:]
	if len(recs) > 1 {
		rids = make([]RID, len(recs))
	}
	return t.insert(tx, recs, rids)
}

// insert is the one record-level insert path: it refuses a primary key
// the table or recs already hold, writes recs to the heap as one batch
// (storing their RIDs in rids) and indexes them. Each row's undo entry,
// one per row and registered to t, unindexes it and then has the heap
// delete it. It keeps no reference to recs or rids, so a one-row caller
// can pass both on its stack; the entries reference the records.
func (t *Table) insert(tx *txn.Txn, recs [][]byte, rids []RID) error {
	if err := t.checkNewKeys(recs); err != nil {
		return err
	}
	if err := t.heap.InsertBatch(tx, recs, rids, t); err != nil {
		return err
	}
	t.mu.Lock()
	for i, rec := range recs {
		t.indexLocked(rec, rids[i])
	}
	t.mu.Unlock()
	return nil
}

// checkNewKeys fails if the primary key of a record of recs is in the
// table already or in an earlier record of recs.
func (t *Table) checkNewKeys(recs [][]byte) error {
	var batch map[int64]bool
	if len(recs) > 1 {
		batch = make(map[int64]bool, len(recs))
	}
	var buf [8]byte
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, rec := range recs {
		f, _ := field(t.schema, rec, 0) // recs are valid encodings
		pk := intOf(f)
		if _, exists := t.pk.Get(appendKey(buf[:0], TInt, f)); exists || batch[pk] {
			return fmt.Errorf("db: table %q: duplicate primary key %v", t.name, pk)
		}
		if batch != nil {
			batch[pk] = true
		}
	}
	return nil
}

// Update replaces the row at rid under tx. The heap hands back the record
// it replaced; when the primary key and every indexed column encode the
// same in both, the indexes are left alone — a tombstone flip and a
// document-row refresh change neither. A row that no longer fits on its
// page (even after compaction) is relocated to another page; indexes follow
// the new RID.
func (t *Table) Update(tx *txn.Txn, rid RID, row Row) error {
	rec, err := EncodeRow(t.schema, row)
	if err != nil {
		return err
	}
	return t.update(tx, rid, rec)
}

// UpdateRecord replaces the row whose primary key rec carries with rec, a
// row a RowEncoder of t wrote, as Update does. A record that is not framed
// as a row of t is refused with ErrSchema.
func (t *Table) UpdateRecord(tx *txn.Txn, rec []byte) error {
	if err := checkRecord(t.schema, rec); err != nil {
		return fmt.Errorf("db: table %q: %w", t.name, err)
	}
	f, _ := field(t.schema, rec, 0)
	rid, err := t.ridOf(intOf(f))
	if err != nil {
		return err
	}
	return t.update(tx, rid, rec)
}

// update is Update's record-level body. Its undo entries are registered to
// t: a relocated row's delete and insert index the old copy again and
// unindex the new one, and an update in place moves the index entries
// back if its keys changed.
func (t *Table) update(tx *txn.Txn, rid RID, rec []byte) error {
	old, err := t.heap.Update(tx, rid, rec, t)
	if errors.Is(err, storage.ErrPageFull) {
		if old, err = t.heap.Delete(tx, rid, t); err != nil {
			return err
		}
		var newRID [1]RID
		if err := t.heap.InsertBatch(tx, [][]byte{rec}, newRID[:], t); err != nil {
			return err
		}
		t.mu.Lock()
		t.reindexLocked(old, rid, rec, newRID[0])
		t.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	if !t.sameKeys(old, rec) {
		t.mu.Lock()
		t.reindexLocked(old, rid, rec, rid)
		t.mu.Unlock()
	}
	return nil
}

// Delete removes the row at rid under tx, maintaining indexes.
func (t *Table) Delete(tx *txn.Txn, rid RID) error {
	old, err := t.heap.Delete(tx, rid, t)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.unindexLocked(old, rid)
	t.mu.Unlock()
	return nil
}

// Get returns the row at rid (share-locked under tx if tx is non-nil).
func (t *Table) Get(tx *txn.Txn, rid RID) (Row, error) {
	rec, err := t.heap.Get(tx, rid)
	if err != nil {
		return nil, err
	}
	return DecodeRow(t.schema, rec)
}

// ridOf returns the RID of the row whose primary key equals pk.
func (t *Table) ridOf(pk int64) (RID, error) {
	var k [8]byte
	t.mu.RLock()
	rid, ok := t.pk.Get(keyOfPK(k[:0], pk))
	t.mu.RUnlock()
	if !ok {
		return RID{}, ErrNotFound
	}
	return rid, nil
}

// GetByPK returns the row whose primary key equals pk.
func (t *Table) GetByPK(tx *txn.Txn, pk int64) (Row, RID, error) {
	rid, err := t.ridOf(pk)
	if err != nil {
		return nil, RID{}, err
	}
	row, err := t.Get(tx, rid)
	if err != nil {
		return nil, RID{}, err
	}
	return row, rid, nil
}

// floorByPK returns the row with the greatest primary key at or below pk
// (ErrNotFound if every key is above it): a row that stands for a range of
// keys from its own, such as a run of characters, is found by any key in
// the range.
func (t *Table) floorByPK(tx *txn.Txn, pk int64) (Row, RID, error) {
	var k [8]byte
	t.mu.RLock()
	_, rid, ok := t.pk.Floor(keyOfPK(k[:0], pk))
	t.mu.RUnlock()
	if !ok {
		return nil, RID{}, ErrNotFound
	}
	row, err := t.Get(tx, rid)
	if err != nil {
		return nil, RID{}, err
	}
	return row, rid, nil
}

// FloorRecordByPK is FloorByPK returning the row's record, EncodeRow's
// bytes, appended to dst: with a RowReader over it, a hot reader decodes
// the row with no value boxed into a Row.
func (t *Table) FloorRecordByPK(tx *txn.Txn, pk int64, dst []byte) ([]byte, error) {
	var k [8]byte
	t.mu.RLock()
	_, rid, ok := t.pk.Floor(keyOfPK(k[:0], pk))
	t.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return t.heap.Read(tx, rid, dst)
}

// ReadRecord returns the record of the row at rid appended to dst, as Get
// reads it.
func (t *Table) ReadRecord(tx *txn.Txn, rid RID, dst []byte) ([]byte, error) {
	return t.heap.Read(tx, rid, dst)
}

// ScanRecords visits the record of every row, as Scan with a nil tx reads
// it, until fn returns false.
func (t *Table) ScanRecords(fn func(rid RID, rec []byte) (bool, error)) error {
	stop := false
	return t.heap.ScanDirty(func(rid RID, rec []byte) error {
		if stop {
			return nil
		}
		cont, err := fn(rid, rec)
		stop = !cont
		return err
	})
}

// Reader returns a reader of rec, a record of the table.
func (t *Table) Reader(rec []byte) RowReader { return RowReader{schema: t.schema, rec: rec} }

// UpdateByPK replaces the row whose primary key equals pk.
func (t *Table) UpdateByPK(tx *txn.Txn, pk int64, row Row) error {
	rid, err := t.ridOf(pk)
	if err != nil {
		return err
	}
	return t.Update(tx, rid, row)
}

// DeleteByPK removes the row whose primary key equals pk.
func (t *Table) DeleteByPK(tx *txn.Txn, pk int64) error {
	rid, err := t.ridOf(pk)
	if err != nil {
		return err
	}
	return t.Delete(tx, rid)
}

// LookupEq returns the RIDs of rows whose column equals value, via the
// secondary index on that column (which must exist).
func (t *Table) LookupEq(column string, value interface{}) ([]RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ix *Index
	for _, cand := range t.indexes {
		if cand.Column == column {
			ix = cand
			break
		}
	}
	if ix == nil {
		return nil, fmt.Errorf("db: table %q has no index on %q", t.name, column)
	}
	enc, err := EncodeKey(t.schema[ix.col].Type, value)
	if err != nil {
		return nil, err
	}
	from := append(append([]byte(nil), enc...), 0)
	to := append(append([]byte(nil), enc...), 1)
	var out []RID
	ix.tree.AscendRange(from, to, func(_ []byte, rid RID) bool {
		out = append(out, rid)
		return true
	})
	return out, nil
}

// Scan visits every row. With a non-nil tx each row is share-locked first,
// so the scan waits out concurrent writers row by row; with nil tx the scan
// reads the current physical state (read-uncommitted, used for analytics
// over quiescent stores).
func (t *Table) Scan(tx *txn.Txn, fn func(rid RID, row Row) (bool, error)) error {
	stop := false
	err := t.heap.ScanDirty(func(rid RID, rec []byte) error {
		if stop {
			return nil
		}
		if tx != nil {
			if err := tx.Lock(rowKey(t.id, rid), txn.Shared); err != nil {
				return err
			}
			// Re-read under the lock: the record may have changed or died
			// between the physical scan and lock grant.
			cur, err := t.heap.Get(tx, rid)
			if err != nil {
				return nil // row deleted by a committed writer; skip
			}
			rec = cur
		}
		row, err := DecodeRow(t.schema, rec)
		if err != nil {
			return err
		}
		cont, err := fn(rid, row)
		if err != nil {
			return err
		}
		if !cont {
			stop = true
		}
		return nil
	})
	return err
}

// MaxPK returns the largest primary key, or 0 if the table is empty.
func (t *Table) MaxPK() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := t.pk.Max()
	if k == nil {
		return 0
	}
	// Reverse the sign-flip order encoding.
	var v uint64
	for _, b := range k {
		v = v<<8 | uint64(b)
	}
	return int64(v ^ (1 << 63))
}
