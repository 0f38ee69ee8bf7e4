package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/wal"
)

// RID identifies a record: the page it lives on and its slot. RIDs are
// stable for the lifetime of the record (slots are tombstoned, not reused).
type RID struct {
	Page storage.PageID
	Slot int
}

// Bytes returns a fixed 12-byte encoding of the RID.
func (r RID) Bytes() []byte { return r.appendTo(make([]byte, 0, 12)) }

func (r RID) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Page))
	return binary.BigEndian.AppendUint32(dst, uint32(r.Slot))
}

// RIDFromBytes decodes a RID encoded by Bytes.
func RIDFromBytes(b []byte) (RID, error) {
	if len(b) < 12 {
		return RID{}, errors.New("db: short RID encoding")
	}
	return RID{
		Page: storage.PageID(binary.BigEndian.Uint64(b[:8])),
		Slot: int(binary.BigEndian.Uint32(b[8:12])),
	}, nil
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("%d.%d", uint64(r.Page), r.Slot) }

// ErrNotFound reports a missing record.
var ErrNotFound = errors.New("db: record not found")

// Heap stores variable-length records for one table in slotted pages tagged
// with the table's owner ID. All mutations are write-ahead logged and
// registered for transactional undo.
type Heap struct {
	tableID uint64
	pool    *storage.BufferPool
	log     *wal.Log

	mu    sync.Mutex
	pages []storage.PageID
	// free is a free-space estimate per page: exact when an insert stored
	// it, possibly stale when Update or compensate did (they publish a
	// figure read before taking mu). It picks candidate pages; InsertBatch
	// checks the page itself before it writes.
	free map[storage.PageID]int
}

// NewHeap creates an empty heap for tableID.
func NewHeap(tableID uint64, pool *storage.BufferPool, log *wal.Log) *Heap {
	return &Heap{
		tableID: tableID,
		pool:    pool,
		log:     log,
		free:    make(map[storage.PageID]int),
	}
}

// AttachPage registers an existing page (discovered at open) with the heap.
func (h *Heap) AttachPage(id storage.PageID, freeSpace int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = append(h.pages, id)
	h.free[id] = freeSpace
}

// TableID returns the owning table's ID.
func (h *Heap) TableID() uint64 { return h.tableID }

// Pages returns a snapshot of the heap's page list.
func (h *Heap) Pages() []storage.PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]storage.PageID(nil), h.pages...)
}

const slotOverhead = 8 // slot entry + headroom

// Insert appends rec to the heap under tx and returns its RID. The new row
// is exclusively locked by tx until commit/abort.
func (h *Heap) Insert(tx *txn.Txn, rec []byte) (RID, error) {
	var rid [1]RID
	if err := h.InsertBatch(tx, [][]byte{rec}, rid[:]); err != nil {
		return RID{}, err
	}
	return rid[0], nil
}

// InsertBatch appends recs to the heap under tx and stores each record's
// RID at the same index of rids, which is as long as recs. Unlike repeated
// Insert calls it fetches and latches each heap page once per run of
// records placed on it rather than once per record — the engine's hottest
// path (Document.ApplyAsync) writes one row per character, so a keystroke
// batch of n characters costs O(pages touched) page acquisitions instead
// of O(n). Every record is still individually write-ahead logged,
// exclusively locked and registered for undo. It keeps no reference to
// recs or rids.
func (h *Heap) InsertBatch(tx *txn.Txn, recs [][]byte, rids []RID) error {
	for _, rec := range recs {
		if len(rec) > storage.PageSize/2 {
			return fmt.Errorf("db: record of %d bytes exceeds max record size", len(rec))
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < len(recs); {
		pageID, err := h.pickPageLocked(len(recs[i]) + slotOverhead)
		if err != nil {
			return err
		}
		pg, err := h.pool.Fetch(pageID)
		if err != nil {
			return err
		}
		placed, err := func() (int, error) {
			pg.Lock()
			defer pg.Unlock()
			sp := storage.Slotted(pg)
			// Keep the free-space estimate honest on every exit: an error
			// after records were placed (deadlock victim mid-batch) must
			// not leave the map overstating this page's capacity.
			defer func() { h.free[pageID] = sp.FreeSpace() }()
			// A fresh slot's row lock is free, except when an insert took
			// it and the log then refused the record, which only a
			// poisoned log does. That insert released this latch after the
			// log failed, so checking here is enough. Waiting for the lock
			// instead would deadlock with the holder's rollback, which
			// needs this latch and h.mu, until the lock timeout.
			if h.log.Failed() {
				return 0, fmt.Errorf("db: insert into table %d: %w", h.tableID, wal.ErrLogFailed)
			}
			n := 0
			for i+n < len(recs) {
				rec := recs[i+n]
				// h.free may overstate this page (see the field), so ask
				// the page itself — for the first record as for the rest,
				// and before the row is locked or logged: the log must never
				// hold an insert that was not applied. On a miss the
				// deferred store corrects the estimate and the outer loop
				// picks another page.
				if sp.FreeSpace() < len(rec)+slotOverhead {
					break
				}
				slot := sp.NumSlots()
				rid := RID{Page: pageID, Slot: slot}
				if err := tx.Lock(rowKey(h.tableID, rid), txn.Exclusive); err != nil {
					return n, err
				}
				lsn, err := h.log.Append(&wal.Record{
					Type: wal.RecUpdate, TxnID: tx.ID(), PrevLSN: tx.LastLSN(),
					Page: uint64(pageID), Slot: uint32(slot), Op: wal.OpInsert,
					Owner: h.tableID, After: rec,
				})
				if err != nil {
					return n, err
				}
				if err := sp.InsertAt(slot, rec); err != nil {
					return n, err
				}
				pg.SetLSN(uint64(lsn))
				prev := tx.LastLSN()
				tx.SetLastLSN(lsn)
				rids[i+n] = rid
				recCopy := rec
				tx.OnUndo(func() error {
					return h.compensate(tx, &wal.Record{
						Type: wal.RecCLR, TxnID: tx.ID(), Page: uint64(pageID),
						Slot: uint32(slot), Op: wal.OpDelete, Owner: h.tableID,
						Before: recCopy, UndoNext: prev,
					})
				})
				n++
			}
			return n, nil
		}()
		h.pool.Unpin(pageID, true)
		if err != nil {
			return err
		}
		i += placed
	}
	return nil
}

// Update replaces the record at rid with rec under tx and returns the
// record it replaced, copied under the page latch while the row is
// exclusively locked. A grown record that no longer fits its page fails
// with storage.ErrPageFull and leaves nothing behind — no log record, no
// undo entry — so the caller can relocate the row with a logged delete and
// a logged insert.
func (h *Heap) Update(tx *txn.Txn, rid RID, rec []byte) ([]byte, error) {
	if err := tx.Lock(rowKey(h.tableID, rid), txn.Exclusive); err != nil {
		return nil, err
	}
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, true)

	// The page latch is never held while taking h.mu (InsertBatch holds h.mu
	// first, then latches): holding both in opposite orders would deadlock.
	var before []byte
	undo, freeAfter, err := func() (*wal.Record, int, error) {
		pg.Lock()
		defer pg.Unlock()
		sp := storage.Slotted(pg)
		cur, err := sp.Get(rid.Slot)
		if err != nil {
			return nil, 0, ErrNotFound
		}
		before = append([]byte(nil), cur...)
		// Only the page knows whether the record fits, so it is applied
		// first and logged second: the log must never hold an update redo
		// cannot repeat. The latch is held across both — the page cannot
		// reach disk in between, which is all write-ahead ordering asks.
		if err := sp.Update(rid.Slot, rec); err != nil {
			return nil, 0, err
		}
		// Only the bytes that change are logged: a tombstone flip or a
		// document-row refresh rewrites a few bytes of a ~100-byte row.
		off, was, now := wal.Splice(before, rec)
		lsn, err := h.log.Append(&wal.Record{
			Type: wal.RecUpdate, TxnID: tx.ID(), PrevLSN: tx.LastLSN(),
			Page: uint64(rid.Page), Slot: uint32(rid.Slot), Op: wal.OpUpdate,
			Owner: h.tableID, Off: off, Before: was, After: now,
		})
		if err != nil {
			// Unlogged, so it must not stay applied; the old record fit
			// before and fits again.
			if rerr := sp.Update(rid.Slot, before); rerr != nil {
				return nil, 0, fmt.Errorf("db: update page %d slot %d: %w (restoring the record: %v)",
					rid.Page, rid.Slot, err, rerr)
			}
			return nil, 0, err
		}
		pg.SetLSN(uint64(lsn))
		undo := &wal.Record{
			Type: wal.RecCLR, TxnID: tx.ID(), Page: uint64(rid.Page),
			Slot: uint32(rid.Slot), Op: wal.OpUpdate, Owner: h.tableID,
			Off: off, Before: now, After: was, UndoNext: tx.LastLSN(),
		}
		tx.SetLastLSN(lsn)
		return undo, sp.FreeSpace(), nil
	}()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.free[rid.Page] = freeAfter
	h.mu.Unlock()

	tx.OnUndo(func() error { return h.compensate(tx, undo) })
	return before, nil
}

// Delete removes the record at rid under tx and returns it.
func (h *Heap) Delete(tx *txn.Txn, rid RID) ([]byte, error) {
	if err := tx.Lock(rowKey(h.tableID, rid), txn.Exclusive); err != nil {
		return nil, err
	}
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, true)
	pg.Lock()
	defer pg.Unlock()

	sp := storage.Slotted(pg)
	cur, err := sp.Get(rid.Slot)
	if err != nil {
		return nil, ErrNotFound
	}
	before := append([]byte(nil), cur...)

	lsn, err := h.log.Append(&wal.Record{
		Type: wal.RecUpdate, TxnID: tx.ID(), PrevLSN: tx.LastLSN(),
		Page: uint64(rid.Page), Slot: uint32(rid.Slot), Op: wal.OpDelete,
		Owner: h.tableID, Before: before,
	})
	if err != nil {
		return nil, err
	}
	if err := sp.Delete(rid.Slot); err != nil {
		return nil, err
	}
	pg.SetLSN(uint64(lsn))
	prev := tx.LastLSN()
	tx.SetLastLSN(lsn)

	tx.OnUndo(func() error {
		return h.compensate(tx, &wal.Record{
			Type: wal.RecCLR, TxnID: tx.ID(), Page: uint64(rid.Page),
			Slot: uint32(rid.Slot), Op: wal.OpInsert, Owner: h.tableID,
			After: before, UndoNext: prev,
		})
	})
	return before, nil
}

// Get returns a copy of the record at rid. If tx is non-nil the row is
// share-locked, so the read waits out in-flight writers of that row.
func (h *Heap) Get(tx *txn.Txn, rid RID) ([]byte, error) {
	if tx != nil {
		if err := tx.Lock(rowKey(h.tableID, rid), txn.Shared); err != nil {
			return nil, err
		}
	}
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	pg.RLock()
	defer pg.RUnlock()
	rec, err := storage.Slotted(pg).Get(rid.Slot)
	if err != nil {
		return nil, ErrNotFound
	}
	return append([]byte(nil), rec...), nil
}

// ScanDirty visits every live record without taking transaction locks. It
// is used for index rebuilds at open (no concurrent transactions) and
// internal maintenance; fn receives a copy of each record.
func (h *Heap) ScanDirty(fn func(rid RID, rec []byte) error) error {
	for _, pageID := range h.Pages() {
		pg, err := h.pool.Fetch(pageID)
		if err != nil {
			return err
		}
		pg.RLock()
		sp := storage.Slotted(pg)
		type item struct {
			rid RID
			rec []byte
		}
		var items []item
		for s := 0; s < sp.NumSlots(); s++ {
			if rec, err := sp.Get(s); err == nil {
				items = append(items, item{RID{pageID, s}, append([]byte(nil), rec...)})
			}
		}
		pg.RUnlock()
		h.pool.Unpin(pageID, false)
		for _, it := range items {
			if err := fn(it.rid, it.rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// compensate applies a CLR during runtime rollback. Like every heap
// mutation it appends its record under the page latch: appended before the
// latch is taken, another transaction could log and stamp the page in
// between, and the CLR's lower LSN would then move the page LSN backwards.
// As in Update, the page is changed first and logged second, so a CLR the
// page refuses is never logged. A CLR the log refuses leaves the rollback
// applied in memory (see txn.Abort) and stamps the page with an LSN no
// flush will reach, so the WAL barrier keeps the page off disk: written
// back with the undone update's LSN, it would make a restart skip that
// update's redo and then fail to undo it. As everywhere, the page latch is
// released before h.mu is taken.
func (h *Heap) compensate(tx *txn.Txn, clr *wal.Record) error {
	pg, err := h.pool.Fetch(storage.PageID(clr.Page))
	if err != nil {
		return err
	}
	defer h.pool.Unpin(storage.PageID(clr.Page), true)
	var freeAfter int
	err = func() error {
		pg.Lock()
		defer pg.Unlock()
		sp := storage.Slotted(pg)
		if err := wal.Apply(sp, clr); err != nil {
			return fmt.Errorf("db: undo op %d page %d slot %d: %w", clr.Op, clr.Page, clr.Slot, err)
		}
		lsn, err := h.log.Append(clr)
		if err != nil {
			pg.SetLSN(math.MaxUint64)
			return err
		}
		pg.SetLSN(uint64(lsn))
		tx.SetLastLSN(lsn)
		freeAfter = sp.FreeSpace()
		return nil
	}()
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.free[storage.PageID(clr.Page)] = freeAfter
	h.mu.Unlock()
	return nil
}

// pickPageLocked returns a page with at least need free bytes, allocating
// and formatting a new one if necessary. Caller holds h.mu.
func (h *Heap) pickPageLocked(need int) (storage.PageID, error) {
	// Check most recent pages first: inserts cluster at the tail.
	for i := len(h.pages) - 1; i >= 0 && i >= len(h.pages)-4; i-- {
		id := h.pages[i]
		if h.free[id] >= need {
			return id, nil
		}
	}
	// Then probe the free map (bounded), reclaiming space freed by deletes
	// and relocations in older pages before growing the file.
	probes := 0
	for id, free := range h.free {
		if free >= need {
			return id, nil
		}
		probes++
		if probes >= 16 {
			break
		}
	}
	pg, err := h.pool.NewPage()
	if err != nil {
		return 0, err
	}
	pg.Lock()
	storage.InitSlotted(pg)
	pg.SetOwner(h.tableID)
	pg.Unlock()
	id := pg.ID()
	h.pool.Unpin(id, true)
	h.pages = append(h.pages, id)
	h.free[id] = storage.PageSize // estimate; corrected on first insert
	return id, nil
}

// rowKey names a row for the lock manager.
func rowKey(table uint64, rid RID) txn.Key {
	return txn.Key{Table: table, Page: uint64(rid.Page), Slot: uint32(rid.Slot)}
}
