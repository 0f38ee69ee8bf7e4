package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// DiskManager abstracts the persistent page store. Implementations must be
// safe for concurrent use.
type DiskManager interface {
	// ReadPage fills buf (PageSize bytes) with the content of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (PageSize bytes) as the content of page id.
	WritePage(id PageID, buf []byte) error
	// AllocatePage extends the store by one page and returns its ID.
	AllocatePage() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint64
	// Sync forces all written pages to stable storage.
	Sync() error
	// Close releases underlying resources.
	Close() error
}

// ErrClosed reports use of a closed disk manager.
var ErrClosed = errors.New("storage: disk manager closed")

// FileDisk is a DiskManager backed by a single operating-system file. Page i
// lives at byte offset i*PageSize.
type FileDisk struct {
	mu     sync.Mutex
	f      *os.File
	pages  uint64
	closed bool
}

// OpenFileDisk opens (creating if necessary) the page file at path.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %s has torn size %d", path, st.Size())
	}
	return &FileDisk{f: f, pages: uint64(st.Size()) / PageSize}, nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer size %d", len(buf))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if uint64(id) >= d.pages {
		return fmt.Errorf("storage: read of unallocated %v", id)
	}
	_, err := d.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read %v: %w", id, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer size %d", len(buf))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if uint64(id) >= d.pages {
		return fmt.Errorf("storage: write of unallocated %v", id)
	}
	if _, err := d.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write %v: %w", id, err)
	}
	return nil
}

// AllocatePage implements DiskManager.
func (d *FileDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	id := PageID(d.pages)
	var zero [PageSize]byte
	if _, err := d.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: extend to %v: %w", id, err)
	}
	d.pages++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Sync implements DiskManager.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	//tendax:allow-locksync the page store owns its barrier: mu guards the fd and page count, and Sync must exclude concurrent WriteBack
	return d.f.Sync()
}

// Close implements DiskManager.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}

// MemDisk is an in-memory DiskManager used by tests, examples and
// benchmarks that do not need durability.
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if uint64(id) >= uint64(len(d.pages)) {
		return fmt.Errorf("storage: read of unallocated %v", id)
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint64(id) >= uint64(len(d.pages)) {
		return fmt.Errorf("storage: write of unallocated %v", id)
	}
	copy(d.pages[id], buf)
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint64(len(d.pages))
}

// SnapshotHead copies the disk's first n pages (all of them when n is at
// least NumPages): the image of a crash that lost every later one.
func (d *MemDisk) SnapshotHead(n int) *MemDisk {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pages := make([][]byte, min(n, len(d.pages)))
	for i := range pages {
		pages[i] = append([]byte(nil), d.pages[i]...)
	}
	return &MemDisk{pages: pages}
}

// Sync implements DiskManager.
func (d *MemDisk) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }
