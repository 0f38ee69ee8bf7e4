package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/placement"
	"tendax/internal/protocol"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// countingStore wraps the file-backed WAL store: it counts what the log
// hands to the device and remembers how long the file was at the last
// Sync, which is all of it a crash would leave behind.
//
// Sync is counted and NOT passed on to the device. Real fsync latency on
// the reference host drifted by a third between consecutive runs and
// dominated every one-key-per-batch number, so the device is kept out of
// the timings: the file is written, the flush is a count
// (wal.syncs_per_key), and the crash image is cut by the harness at the
// length recorded here.
type countingStore struct {
	wal.Store
	tr *tracer

	appends, syncs, bytes atomic.Int64
	appendNS, syncNS      atomic.Int64 // traced passes only

	mu     sync.Mutex
	size   int64 // file length
	synced int64 // file length at the last Sync
}

func (s *countingStore) Append(b []byte) error {
	sp := s.tr.begin("wal", "append", s.tr.parent(), 0)
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	// The length is updated under the same lock as the write so a Sync
	// never records a length the file has not reached.
	s.mu.Lock()
	err := s.Store.Append(b)
	if err == nil {
		s.size += int64(len(b))
	}
	s.mu.Unlock()
	if s.tr != nil {
		s.appendNS.Add(time.Since(t0).Nanoseconds())
		s.tr.end(sp)
	}
	if err == nil {
		s.appends.Add(1)
		s.bytes.Add(int64(len(b)))
	}
	return err
}

func (s *countingStore) Sync() error {
	sp := s.tr.begin("wal", "sync", s.tr.parent(), 0)
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	s.synced = s.size
	s.mu.Unlock()
	s.syncs.Add(1)
	if s.tr != nil {
		s.syncNS.Add(time.Since(t0).Nanoseconds())
		s.tr.end(sp)
	}
	return nil
}

func (s *countingStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Store.Reset(); err != nil {
		return err
	}
	s.size, s.synced = 0, 0
	return nil
}

// TruncateHead rewrites the log without its first off bytes; the store
// syncs the rewritten file itself, so all of it counts as flushed.
func (s *countingStore) TruncateHead(off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Store.TruncateHead(off); err != nil {
		return err
	}
	if off > 0 {
		s.size -= off
		s.synced = s.size
	}
	return nil
}

func (s *countingStore) syncedLen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

// countingDisk wraps the page file the same way: page traffic is counted,
// Sync is counted and not passed on.
type countingDisk struct {
	storage.DiskManager
	tr                   *tracer
	reads, writes, syncs atomic.Int64
}

func (d *countingDisk) ReadPage(id storage.PageID, buf []byte) error {
	sp := d.tr.begin("storage", "read_page", d.tr.parent(), 0)
	err := d.DiskManager.ReadPage(id, buf)
	d.tr.end(sp)
	d.reads.Add(1)
	return err
}

func (d *countingDisk) WritePage(id storage.PageID, buf []byte) error {
	sp := d.tr.begin("storage", "write_page", d.tr.parent(), 0)
	err := d.DiskManager.WritePage(id, buf)
	d.tr.end(sp)
	d.writes.Add(1)
	return err
}

func (d *countingDisk) Sync() error {
	d.syncs.Add(1)
	return nil
}

// stack is the system under test, wired the way cmd/tendaxd wires its
// defaults: one shard, file-backed, group commit on, auth off, indexers
// on, background checkpointer off (the harness checkpoints by work done).
type stack struct {
	dir   string
	disk  *countingDisk
	store *countingStore
	db    *db.Database
	eng   *core.Engine
	cl    *placement.Cluster
	srv   *server.Server
	addr  string

	served chan error
}

func openStack(dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fd, err := storage.OpenFileDisk(filepath.Join(dir, "pages.db"))
	if err != nil {
		return nil, err
	}
	fs, err := wal.OpenFileStore(filepath.Join(dir, "wal.log"))
	if err != nil {
		_ = fd.Close()
		return nil, err
	}
	s := &stack{
		dir:   dir,
		disk:  &countingDisk{DiskManager: fd, tr: tr},
		store: &countingStore{Store: fs, tr: tr},
	}
	s.db, err = db.OpenWith(s.disk, s.store, db.Options{})
	if err != nil {
		_ = fs.Close()
		_ = fd.Close()
		return nil, fmt.Errorf("open database: %w", err)
	}
	s.db.Log().StartGroupCommit(db.DefaultGroupCommitDelay)
	s.eng, err = core.NewEngine(s.db, nil)
	if err != nil {
		_ = s.db.Close()
		return nil, fmt.Errorf("new engine: %w", err)
	}
	s.cl = placement.Wrap(s.eng)
	if err := s.cl.StartIndexers(); err != nil {
		_ = s.db.Close()
		return nil, fmt.Errorf("start indexers: %w", err)
	}
	s.srv = server.NewCluster(s.cl, nil)
	s.srv.SetLogf(func(string, ...interface{}) {})
	bound, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		_ = s.cl.Close()
		_ = s.db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = bound.String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve() }()
	return s, nil
}

// close stops the server, waits for its accept loop and every connection
// handler, then closes the indexers and the database.
func (s *stack) close() error {
	err := s.srv.Close()
	err = errors.Join(err, <-s.served)
	err = errors.Join(err, s.cl.Close()) // indexers only: the cluster wraps our engine
	return errors.Join(err, s.db.Close())
}

// crashImage copies into dir what a crash right now would leave: the page
// file as it stands and the log cut at the length of its last Sync. The
// harness discards the unflushed tail itself — killing a process would
// leave it in the operating system's cache.
func (s *stack) crashImage(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := copyPrefix(filepath.Join(s.dir, "pages.db"), filepath.Join(dir, "pages.db"), -1); err != nil {
		return err
	}
	return copyPrefix(filepath.Join(s.dir, "wal.log"), filepath.Join(dir, "wal.log"), s.store.syncedLen())
}

// copyPrefix copies the first n bytes of src to dst (n < 0 = all of it).
func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	if _, err := io.Copy(out, r); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// recovery is what reopening a crash image cost and found.
type recovery struct {
	totalMS, openMS, openDocMS float64
	analyzed, redone           int
	mismatches                 []string // documents that came back different from the acknowledged text
}

// recoverImage reopens the crash image in dir the way a restarted tendaxd
// would, loads every workload document and compares it with the text the
// clients were acknowledged.
func recoverImage(dir string, want map[util.ID]string, tr *tracer) (recovery, error) {
	var r recovery
	t0 := time.Now()
	sp := tr.begin("db", "open", 0, 0)
	database, err := db.Open(db.Options{Dir: dir})
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("recovery: open: %w", err)
	}
	defer database.Close()
	r.openMS = ms(time.Since(t0))
	r.analyzed, r.redone = database.Recovery.Analyzed, database.Recovery.Redone

	t1 := time.Now()
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		return r, fmt.Errorf("recovery: engine: %w", err)
	}
	for id, text := range want {
		sp := tr.begin("core", "open_document", 0, int64(id))
		d, err := eng.OpenDocument(id)
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("recovery: open document %d: %w", id, err)
		}
		if got := d.Text(); got != text {
			r.mismatches = append(r.mismatches, fmt.Sprintf(
				"recovery: document %d has %d bytes, the acknowledged text has %d (first difference at byte %d)",
				id, len(got), len(text), firstDiff(got, text)))
		}
	}
	r.openDocMS = ms(time.Since(t1))
	r.totalMS = ms(time.Since(t0))
	return r, nil
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// dial connects one co-author the way an editor does: v3 negotiation,
// then login.
func dial(addr, user string) (*client.Client, error) {
	return client.Dial(addr, client.WithMaxVersion(protocol.VersionMax), client.WithUser(user))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
