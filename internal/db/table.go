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
)

// Index is a secondary index over one column. Non-unique: the B-tree key is
// the order-preserving column encoding followed by the RID, so duplicate
// column values coexist and scan in RID order.
type Index struct {
	Column string
	col    int
	tree   *btree.Tree
}

// Index keys are built from a row's stored encoding, never from a decoded
// Row: Update compares those bytes to skip re-indexing, and Delete and an
// abort's undo unindex the very bytes they hold.

// pkKey appends the primary-key B-tree key of rec to dst.
func pkKey(dst, rec []byte) []byte { return appendKey(dst, TInt, rec[:8]) }

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

	mu      sync.RWMutex // protects indexes and pk
	pk      *btree.Tree  // primary key (col 0, int64) -> RID
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
		pk:     btree.New(),
	}, nil
}

// ID returns the table's catalog ID.
func (t *Table) ID() uint64 { return t.id }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

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
	t.indexes = append(t.indexes, &Index{Column: column, col: c, tree: btree.New()})
	return nil
}

// RebuildIndexes repopulates the primary key and all secondary indexes from
// a heap scan. Called at database open; no concurrent transactions run.
func (t *Table) RebuildIndexes() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pk = btree.New()
	for _, ix := range t.indexes {
		ix.tree = btree.New()
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
	t.pk.Put(pkKey(buf[:0], rec), rid)
	for _, ix := range t.indexes {
		ix.tree.Put(ix.key(buf[:0], t.schema, rec, rid), rid)
	}
}

// unindexLocked removes what indexLocked entered. Caller holds t.mu.
func (t *Table) unindexLocked(rec []byte, rid RID) {
	var buf [64]byte
	t.pk.Delete(pkKey(buf[:0], rec))
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.key(buf[:0], t.schema, rec, rid))
	}
}

// sameKeys reports whether two encodings of a row agree on the primary key
// and every indexed column, so that replacing one by the other in place
// leaves every index as it is.
func (t *Table) sameKeys(a, b []byte) bool {
	if !bytes.Equal(a[:8], b[:8]) {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		fa, _ := field(t.schema, a, ix.col)
		fb, _ := field(t.schema, b, ix.col)
		if !bytes.Equal(fa, fb) {
			return false
		}
	}
	return true
}

// reindex moves a row's index entries from old, stored at oldRID, to rec,
// stored at newRID, and registers the move back as undo.
func (t *Table) reindex(tx *txn.Txn, old []byte, oldRID RID, rec []byte, newRID RID) {
	t.mu.Lock()
	t.unindexLocked(old, oldRID)
	t.indexLocked(rec, newRID)
	t.mu.Unlock()
	tx.OnUndo(func() error {
		t.mu.Lock()
		t.unindexLocked(rec, newRID)
		t.indexLocked(old, oldRID)
		t.mu.Unlock()
		return nil
	})
}

// Insert adds row under tx, maintaining all indexes (with undo hooks so an
// abort restores them).
func (t *Table) Insert(tx *txn.Txn, row Row) (RID, error) {
	rec, err := EncodeRow(t.schema, row)
	if err != nil {
		return RID{}, err
	}
	var buf [8]byte
	t.mu.RLock()
	_, exists := t.pk.Get(pkKey(buf[:0], rec))
	t.mu.RUnlock()
	if exists {
		return RID{}, fmt.Errorf("db: table %q: duplicate primary key %v", t.name, row[0])
	}
	rid, err := t.heap.Insert(tx, rec)
	if err != nil {
		return RID{}, err
	}
	t.mu.Lock()
	t.indexLocked(rec, rid)
	t.mu.Unlock()
	tx.OnUndo(func() error {
		t.mu.Lock()
		t.unindexLocked(rec, rid)
		t.mu.Unlock()
		return nil
	})
	return rid, nil
}

// InsertBatch adds rows under tx as one heap batch, maintaining all
// indexes, and returns one RID per row in order. The heap acquires each
// page once per run of rows instead of once per row, which is what makes
// multi-character editing transactions cheap (core.Document writes one row
// per character).
func (t *Table) InsertBatch(tx *txn.Txn, rows []Row) ([]RID, error) {
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
	batchPKs := make(map[int64]bool, len(rows))
	var buf [8]byte
	t.mu.RLock()
	for i, rec := range recs {
		_, exists := t.pk.Get(pkKey(buf[:0], rec))
		pk := rows[i][0].(int64) // EncodeRow checked the type
		if exists || batchPKs[pk] {
			t.mu.RUnlock()
			return nil, fmt.Errorf("db: table %q: duplicate primary key %v", t.name, pk)
		}
		batchPKs[pk] = true
	}
	t.mu.RUnlock()
	rids, err := t.heap.InsertBatch(tx, recs)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	for i, rec := range recs {
		t.indexLocked(rec, rids[i])
	}
	t.mu.Unlock()
	tx.OnUndo(func() error {
		t.mu.Lock()
		for i, rec := range recs {
			t.unindexLocked(rec, rids[i])
		}
		t.mu.Unlock()
		return nil
	})
	return rids, nil
}

// Update replaces the row at rid under tx. The heap hands back the record
// it replaced; when the primary key and every indexed column encode the
// same in both, the indexes are left alone — a keystroke's neighbour relinks
// and document-row refresh change neither. A row that no longer fits on its
// page (even after compaction) is relocated to another page; indexes follow
// the new RID.
func (t *Table) Update(tx *txn.Txn, rid RID, row Row) error {
	rec, err := EncodeRow(t.schema, row)
	if err != nil {
		return err
	}
	old, err := t.heap.Update(tx, rid, rec)
	if errors.Is(err, storage.ErrPageFull) {
		if old, err = t.heap.Delete(tx, rid); err != nil {
			return err
		}
		newRID, err := t.heap.Insert(tx, rec)
		if err != nil {
			return err
		}
		t.reindex(tx, old, rid, rec, newRID)
		return nil
	}
	if err != nil {
		return err
	}
	if !t.sameKeys(old, rec) {
		t.reindex(tx, old, rid, rec, rid)
	}
	return nil
}

// Delete removes the row at rid under tx, maintaining indexes.
func (t *Table) Delete(tx *txn.Txn, rid RID) error {
	old, err := t.heap.Delete(tx, rid)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.unindexLocked(old, rid)
	t.mu.Unlock()
	tx.OnUndo(func() error {
		t.mu.Lock()
		t.indexLocked(old, rid)
		t.mu.Unlock()
		return nil
	})
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
	var f, k [8]byte
	binary.BigEndian.PutUint64(f[:], uint64(pk))
	t.mu.RLock()
	v, ok := t.pk.Get(pkKey(k[:0], f[:]))
	t.mu.RUnlock()
	if !ok {
		return RID{}, ErrNotFound
	}
	return v.(RID), nil
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
	ix.tree.AscendRange(from, to, func(_ []byte, v interface{}) bool {
		out = append(out, v.(RID))
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

// Count returns the number of live rows (by primary-key index).
func (t *Table) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pk.Len()
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
