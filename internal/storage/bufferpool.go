package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoolFull reports that every frame in the buffer pool is pinned.
var ErrPoolFull = errors.New("storage: buffer pool full (all frames pinned)")

// BufferPool caches pages in memory with clock (second-chance) eviction.
// Pinned pages are never evicted; dirty victims are written back before
// their frame is reused.
type BufferPool struct {
	mu      sync.Mutex
	disk    DiskManager
	frames  []*Page
	table   map[PageID]int // page id -> frame index
	ref     []bool         // clock reference bits
	hand    int
	hits    uint64
	misses  uint64
	barrier func(pageLSN uint64) error // WAL-before-data enforcement
}

// NewBufferPool creates a pool of capacity frames over disk. Capacity must
// be at least 1.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:   disk,
		frames: make([]*Page, capacity),
		table:  make(map[PageID]int, capacity),
		ref:    make([]bool, capacity),
	}
}

// Fetch pins page id, loading it from disk on a miss. The caller must
// Unpin it exactly once.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if idx, ok := bp.table[id]; ok {
		bp.hits++
		bp.frames[idx].pins++
		bp.ref[idx] = true
		return bp.frames[idx], nil
	}
	bp.misses++
	idx, err := bp.victimLocked()
	if err != nil {
		return nil, err
	}
	pg := &Page{id: id}
	if err := bp.disk.ReadPage(id, pg.data[:]); err != nil {
		return nil, err
	}
	pg.pins = 1
	bp.frames[idx] = pg
	bp.table[id] = idx
	bp.ref[idx] = true
	return pg, nil
}

// NewPage allocates a fresh page on disk and returns it pinned.
func (bp *BufferPool) NewPage() (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	idx, err := bp.victimLocked()
	if err != nil {
		return nil, err
	}
	pg := &Page{id: id, pins: 1, dirty: true}
	bp.frames[idx] = pg
	bp.table[id] = idx
	bp.ref[idx] = true
	return pg, nil
}

// Unpin releases one pin on page id. If dirty, the page is marked for
// write-back on eviction or flush.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	idx, ok := bp.table[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident %v", id)
	}
	pg := bp.frames[idx]
	if pg.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned %v", id)
	}
	pg.pins--
	if dirty {
		// The dirty flag is protected by the page latch (writers and the
		// flusher both take it); bp.mu alone is not enough.
		pg.Lock()
		pg.dirty = true
		pg.Unlock()
	}
	return nil
}

// pinAt pins whatever page currently occupies frame idx (nil if empty),
// guaranteeing it cannot be evicted while the caller works on it outside
// bp.mu. Release with unpinPage.
func (bp *BufferPool) pinAt(idx int) *Page {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	pg := bp.frames[idx]
	if pg == nil {
		return nil
	}
	pg.pins++
	return pg
}

func (bp *BufferPool) unpinPage(pg *Page) {
	bp.mu.Lock()
	pg.pins--
	bp.mu.Unlock()
}

// DirtyPage is one dirty-page-table entry: a resident page with logged
// effects not yet written back, and the LSN of the earliest such effect.
type DirtyPage struct {
	ID     PageID
	RecLSN uint64
}

// DirtyPages snapshots the dirty page table for a fuzzy checkpoint: every
// resident page whose recLSN is set, without quiescing writers. The capture
// is race-free against concurrent mutators because they hold the page latch
// from before their log append until after SetLSN: any update the snapshot
// misses was appended after the snapshot latched the page, so its LSN is
// above the checkpoint's begin record and survives truncation.
//
// Each page is pinned and latched with bp.mu released: a writer stalled on
// a transaction lock while holding a page latch must never be able to block
// the pool mutex, or the checkpointer could close a deadlock cycle the
// transaction-level detector cannot see.
func (bp *BufferPool) DirtyPages() []DirtyPage {
	var out []DirtyPage
	for idx := range bp.frames {
		pg := bp.pinAt(idx)
		if pg == nil {
			continue
		}
		pg.RLock()
		rec := pg.recLSN
		pg.RUnlock()
		bp.unpinPage(pg)
		if rec != 0 {
			out = append(out, DirtyPage{ID: pg.id, RecLSN: rec})
		}
	}
	return out
}

// FlushBelow writes back every resident page whose recLSN is below lsn and
// syncs the disk, advancing the redo horizon a checkpoint can claim. Pages
// dirtied while the flush runs simply stay dirty — the checkpointer is
// non-quiescent by design — and each page is pinned and flushed under its
// own latch with bp.mu released, so writers block per page at worst.
func (bp *BufferPool) FlushBelow(lsn uint64) error {
	flushed := false
	for idx := range bp.frames {
		pg := bp.pinAt(idx)
		if pg == nil {
			continue
		}
		var err error
		pg.RLock()
		rec := pg.recLSN
		pg.RUnlock()
		if rec != 0 && rec < lsn {
			err = bp.flushPage(pg)
			flushed = true
		}
		bp.unpinPage(pg)
		if err != nil {
			return err
		}
	}
	if !flushed {
		return nil // nothing written: no fsync owed (idle checkpoints)
	}
	return bp.disk.Sync()
}

// FlushAll writes every dirty resident page back to disk and syncs.
func (bp *BufferPool) FlushAll() error {
	for idx := range bp.frames {
		pg := bp.pinAt(idx)
		if pg == nil {
			continue
		}
		err := bp.flushPage(pg)
		bp.unpinPage(pg)
		if err != nil {
			return err
		}
	}
	return bp.disk.Sync()
}

// SetWALBarrier installs the write-ahead-logging rule: before any dirty
// page is written back (flush or eviction), fn is called with the page's
// LSN and must not return until every log record up to that LSN is durable.
// Without a barrier the pool writes pages freely (callers that flush the
// log first, e.g. recovery-only pools and tests, need none).
func (bp *BufferPool) SetWALBarrier(fn func(pageLSN uint64) error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.barrier = fn
}

// Stats returns cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Disk exposes the underlying disk manager (used by recovery).
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// flushPage writes one pinned page back to disk if dirty. The caller holds
// a pin but NOT bp.mu: taking the page latch can mean waiting out a writer
// that is itself waiting on a transaction lock, and that wait must never
// extend a bp.mu critical section (deadlock via latch → row lock → pool).
func (bp *BufferPool) flushPage(pg *Page) error {
	pg.Lock()
	defer pg.Unlock()
	if !pg.dirty {
		return nil
	}
	// WAL rule: the log records behind this page's state must reach disk
	// before the page does, or a crash leaves effects recovery cannot see.
	// The barrier may sleep on the group-commit flusher; that is safe here
	// because the flusher only touches the log store, never the pool.
	if bp.barrier != nil {
		if err := bp.barrier(pg.LSN()); err != nil {
			return err
		}
	}
	if err := bp.disk.WritePage(pg.id, pg.data[:]); err != nil {
		return err
	}
	pg.dirty = false
	pg.recLSN = 0 // every logged effect is now in the on-disk image
	return nil
}

// flushFrameLocked writes a dirty frame back to disk during eviction.
// Caller holds bp.mu; the frame is unpinned (pins == 0), and since every
// latch holder also holds a pin, the latch acquisition inside flushPage can
// never wait on a stalled writer — the bp.mu→latch order is deadlock-free
// on this path.
func (bp *BufferPool) flushFrameLocked(idx int) error {
	pg := bp.frames[idx]
	if pg == nil {
		return nil
	}
	return bp.flushPage(pg)
}

// victimLocked finds a free or evictable frame using the clock algorithm.
func (bp *BufferPool) victimLocked() (int, error) {
	n := len(bp.frames)
	for i := range bp.frames {
		if bp.frames[i] == nil {
			return i, nil
		}
	}
	// Two sweeps: the first clears reference bits, the second takes the
	// first unpinned frame.
	for sweep := 0; sweep < 2*n; sweep++ {
		idx := bp.hand
		bp.hand = (bp.hand + 1) % n
		pg := bp.frames[idx]
		if pg.pins > 0 {
			continue
		}
		if bp.ref[idx] {
			bp.ref[idx] = false
			continue
		}
		if err := bp.flushFrameLocked(idx); err != nil {
			return 0, err
		}
		delete(bp.table, pg.id)
		bp.frames[idx] = nil
		return idx, nil
	}
	return 0, ErrPoolFull
}
