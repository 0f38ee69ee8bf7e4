package db

import (
	"bytes"
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

// bytes returns a fixed 12-byte encoding of the RID.
func (r RID) bytes() []byte { return r.appendTo(make([]byte, 0, 12)) }

func (r RID) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Page))
	return binary.BigEndian.AppendUint32(dst, uint32(r.Slot))
}

// ridFromBytes decodes a RID encoded by bytes.
func ridFromBytes(b []byte) (RID, error) {
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
// registered for transactional undo: each registers one txn.Undo entry
// naming its kind (a wal.PageOp), the row's page and slot, the record it
// wrote or replaced and the LSN before its own, which Undo turns into the
// compensation log record.
type Heap struct {
	tableID uint64
	pool    *storage.BufferPool
	log     *wal.Log

	mu    sync.Mutex
	pages []storage.PageID
	// free is a free-space estimate per page: exact when an insert stored
	// it, possibly stale when Update or Undo did (they publish a figure
	// read before taking mu). It picks candidate pages; InsertBatch checks
	// the page itself before it writes.
	free map[storage.PageID]int
	// probe is the index in pages where pickPageLocked's next probe of the
	// older pages starts.
	probe int
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

// Pages returns a snapshot of the heap's page list.
func (h *Heap) Pages() []storage.PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]storage.PageID(nil), h.pages...)
}

const slotOverhead = 8 // slot entry + headroom

// InsertBatch appends recs to the heap under tx and stores each record's
// RID at the same index of rids, which is as long as recs. Unlike repeated
// one-record calls it fetches and latches each heap page once per run of
// records placed on it rather than once per record — a batch of many rows
// (a split run's pieces, a bulk load's runs) costs O(pages touched) page
// acquisitions instead of O(rows). Every record is still individually
// write-ahead logged, exclusively locked and registered for undo, in an
// entry naming by: the table that owns the heap, which unindexes the row
// before the heap deletes it. It keeps no reference to recs or rids, but
// the entries reference the records, which must stay unchanged until tx
// ends.
func (h *Heap) InsertBatch(tx *txn.Txn, recs [][]byte, rids []RID, by txn.Undoer) error {
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
				prev := tx.LastLSN()
				lsn, err := tx.Append(&wal.Record{Type: wal.RecUpdate,
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
				rids[i+n] = rid
				tx.OnUndo(txn.Undo{By: by, Op: uint8(wal.OpInsert),
					Page: uint64(pageID), Slot: uint32(slot), Rec: rec, Prev: prev})
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

// Update replaces the record at rid with rec under tx, registers an undo
// entry naming by, and returns the record it replaced, copied under the
// page latch while the row is exclusively locked; the entry keeps it, so
// the caller must not modify it. A grown record that no longer fits its
// page fails with storage.ErrPageFull and leaves nothing behind — no log
// record, no undo entry — so the caller can relocate the row with a
// logged delete and a logged insert.
func (h *Heap) Update(tx *txn.Txn, rid RID, rec []byte, by txn.Undoer) ([]byte, error) {
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
	var prev wal.LSN
	freeAfter, err := func() (int, error) {
		pg.Lock()
		defer pg.Unlock()
		sp := storage.Slotted(pg)
		cur, err := sp.Get(rid.Slot)
		if err != nil {
			return 0, ErrNotFound
		}
		before = append([]byte(nil), cur...)
		// Only the page knows whether the record fits, so it is applied
		// first and logged second: the log must never hold an update redo
		// cannot repeat. The latch is held across both — the page cannot
		// reach disk in between, which is all write-ahead ordering asks.
		if err := sp.Update(rid.Slot, rec); err != nil {
			return 0, err
		}
		// Only the bytes that change are logged: a tombstone flip or a
		// document-row refresh rewrites a few bytes of a ~100-byte row.
		off, was, now := wal.Splice(before, rec)
		prev = tx.LastLSN()
		lsn, err := tx.Append(&wal.Record{Type: wal.RecUpdate,
			Page: uint64(rid.Page), Slot: uint32(rid.Slot), Op: wal.OpUpdate,
			Owner: h.tableID, Off: off, Before: was, After: now,
		})
		if err != nil {
			// Unlogged, so it must not stay applied; the old record fit
			// before and fits again.
			if rerr := sp.Update(rid.Slot, before); rerr != nil {
				return 0, fmt.Errorf("db: update page %d slot %d: %w (restoring the record: %v)",
					rid.Page, rid.Slot, err, rerr)
			}
			return 0, err
		}
		pg.SetLSN(uint64(lsn))
		return sp.FreeSpace(), nil
	}()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.free[rid.Page] = freeAfter
	h.mu.Unlock()

	tx.OnUndo(txn.Undo{By: by, Op: uint8(wal.OpUpdate),
		Page: uint64(rid.Page), Slot: uint32(rid.Slot), Rec: before, Prev: prev})
	return before, nil
}

// Delete removes the record at rid under tx, registers an undo entry
// naming by, and returns the record; the entry keeps it, so the caller
// must not modify it.
func (h *Heap) Delete(tx *txn.Txn, rid RID, by txn.Undoer) ([]byte, error) {
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

	prev := tx.LastLSN()
	lsn, err := tx.Append(&wal.Record{Type: wal.RecUpdate,
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

	tx.OnUndo(txn.Undo{By: by, Op: uint8(wal.OpDelete),
		Page: uint64(rid.Page), Slot: uint32(rid.Slot), Rec: before, Prev: prev})
	return before, nil
}

// Get returns a copy of the record at rid. If tx is non-nil the row is
// share-locked, so the read waits out in-flight writers of that row.
func (h *Heap) Get(tx *txn.Txn, rid RID) ([]byte, error) {
	return h.Read(tx, rid, nil)
}

// Read is Get appending the copy to dst, so a reader of many records can
// reuse one buffer.
func (h *Heap) Read(tx *txn.Txn, rid RID, dst []byte) ([]byte, error) {
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
	return append(dst, rec...), nil
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

// Undo compensates u, an entry an insert, update or delete of h
// registered, during a runtime rollback: it applies and logs the CLR that
// reverses it — a delete of the inserted record, the re-insert of the
// deleted one, or the splice that puts back the record an update replaced.
// The update's splice is taken between the record on the page and u.Rec:
// the row is still exclusively locked and every later change the
// transaction made to it is already undone, so the page holds exactly
// what the update wrote, and the CLR spells the splice the update logged
// with its sides swapped.
//
// Like every heap mutation it appends its record under the page latch:
// appended before the latch is taken, another transaction could log and
// stamp the page in between, and the CLR's lower LSN would then move the
// page LSN backwards. As in Update, the page is changed first and logged
// second, so a CLR the page refuses is never logged. A CLR the log refuses
// leaves the rollback applied in memory (see txn.Abort) and stamps the
// page with an LSN no flush will reach, so the WAL barrier keeps the page
// off disk: written back with the undone update's LSN, it would make a
// restart skip that update's redo and then fail to undo it. As everywhere,
// the page latch is released before h.mu is taken.
func (h *Heap) Undo(tx *txn.Txn, u *txn.Undo) error {
	pageID := storage.PageID(u.Page)
	pg, err := h.pool.Fetch(pageID)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(pageID, true)
	clr := wal.Record{Type: wal.RecCLR, Page: u.Page, Slot: u.Slot,
		Owner: h.tableID, UndoNext: u.Prev}
	var freeAfter int
	err = func() error {
		pg.Lock()
		defer pg.Unlock()
		sp := storage.Slotted(pg)
		switch op := wal.PageOp(u.Op); op {
		case wal.OpInsert:
			clr.Op, clr.Before = wal.OpDelete, u.Rec
		case wal.OpDelete:
			clr.Op, clr.After = wal.OpInsert, u.Rec
		case wal.OpUpdate:
			cur, err := sp.Get(int(u.Slot))
			if err != nil {
				return fmt.Errorf("db: undo update page %d slot %d: %w", u.Page, u.Slot, err)
			}
			var now []byte
			clr.Op = wal.OpUpdate
			clr.Off, now, clr.After = wal.Splice(cur, u.Rec)
			clr.Before = bytes.Clone(now) // applying the CLR overwrites cur
		default:
			return fmt.Errorf("db: undo entry of unknown op %d", op)
		}
		if err := wal.Apply(sp, &clr); err != nil {
			return fmt.Errorf("db: undo op %d page %d slot %d: %w", clr.Op, clr.Page, clr.Slot, err)
		}
		lsn, err := tx.Append(&clr)
		if err != nil {
			pg.SetLSN(math.MaxUint64)
			return err
		}
		pg.SetLSN(uint64(lsn))
		freeAfter = sp.FreeSpace()
		return nil
	}()
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.free[pageID] = freeAfter
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
	// Then probe the older pages (bounded), reclaiming space freed by
	// deletes and relocations before growing the file. They are probed in
	// page order from where the last probe stopped, never in the map's
	// random order, so the same edits place rows on the same pages.
	for n := 0; n < 16 && n < len(h.pages); n++ {
		if h.probe >= len(h.pages) {
			h.probe = 0
		}
		if id := h.pages[h.probe]; h.free[id] >= need {
			return id, nil
		}
		h.probe++
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
