// Package storage implements the lowest layer of the TeNDaX embedded
// database: fixed-size pages, disk managers (file-backed and in-memory) and
// a buffer pool with clock eviction. Higher layers (WAL, heap files, the
// relational layer) are built on top of it.
package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within one database file. Page 0 is the
// database's superblock (see db.FormatVersion): no heap owns it and no log
// record names it.
type PageID uint64

// InvalidPageID marks the absence of a page.
const InvalidPageID PageID = ^PageID(0)

// Page is an in-memory image of one on-disk page plus buffer-pool state.
// All mutation must happen while the page is pinned; the buffer pool never
// evicts a pinned page.
type Page struct {
	id    PageID
	data  [PageSize]byte
	pins  int
	dirty bool
	// recLSN is the dirty-page-table entry for this page: the LSN of the
	// first logged update since the page was last written back, or 0 when
	// every logged effect on the page is already in the on-disk image. The
	// fuzzy-checkpoint redo point is the minimum recLSN over all pages, so
	// it must never overshoot: SetLSN records it on the first stamp after a
	// write-back and the buffer pool clears it only after a successful
	// write-back. Protected by the page latch, like the payload.
	recLSN uint64
	mu     sync.RWMutex
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// MarkDirty records that the page differs from its on-disk image.
func (p *Page) MarkDirty() { p.dirty = true }

// Lock acquires the page's writer latch.
func (p *Page) Lock() { p.mu.Lock() }

// Unlock releases the page's writer latch.
func (p *Page) Unlock() { p.mu.Unlock() }

// RLock acquires the page's reader latch.
func (p *Page) RLock() { p.mu.RLock() }

// RUnlock releases the page's reader latch.
func (p *Page) RUnlock() { p.mu.RUnlock() }

// LSN returns the log sequence number stamped on the page (first 8 bytes).
// The recovery protocol uses it to decide whether a logged update has
// already reached the page.
func (p *Page) LSN() uint64 { return binary.BigEndian.Uint64(p.data[:8]) }

// SetLSN stamps the page with a log sequence number. The first stamp after
// a write-back also becomes the page's recovery LSN (recLSN): the earliest
// log record whose effect may not yet be on disk. Callers hold the page
// latch across the log append and the stamp, which is what makes a fuzzy
// dirty-page-table capture race-free (see BufferPool.DirtyPages).
func (p *Page) SetLSN(lsn uint64) {
	if p.recLSN == 0 {
		p.recLSN = lsn
	}
	binary.BigEndian.PutUint64(p.data[:8], lsn)
}

// Owner returns the page's owner tag (bytes 8–16): the ID of the table
// heap the page belongs to, or 0 for unowned pages. The database layer
// discovers each table's pages at open time by scanning these tags.
func (p *Page) Owner() uint64 { return binary.BigEndian.Uint64(p.data[8:16]) }

// SetOwner stamps the page with its owner tag.
func (p *Page) SetOwner(owner uint64) {
	binary.BigEndian.PutUint64(p.data[8:16], owner)
	p.dirty = true
}

// PageHeaderSize is the number of bytes at the start of every page reserved
// for the page LSN and the owner tag.
const PageHeaderSize = 16

func (p PageID) String() string { return fmt.Sprintf("page-%d", uint64(p)) }
