package db

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// faultDisk wraps a DiskManager and fails writes once armed — the storage
// layer must surface the error instead of corrupting state.
type faultDisk struct {
	storage.DiskManager
	failWrites atomic.Bool
}

func (f *faultDisk) WritePage(id storage.PageID, buf []byte) error {
	if f.failWrites.Load() {
		return errors.New("injected write fault")
	}
	return f.DiskManager.WritePage(id, buf)
}

func TestWriteFaultSurfacesOnCheckpoint(t *testing.T) {
	fd := &faultDisk{DiskManager: storage.NewMemDisk()}
	d, err := OpenWith(fd, wal.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fd.failWrites.Store(true)
	if _, err := d.FuzzyCheckpoint(); err == nil {
		t.Fatal("checkpoint swallowed the injected write fault")
	}
	// Data remains intact: after clearing the fault, reads still work.
	fd.failWrites.Store(false)
	if _, _, err := tbl.GetByPK(nil, 1); err != nil {
		t.Fatal(err)
	}
}

// faultStore injects WAL failures while armed: an Append that fails, or a
// Sync that fails after its batch was written — every Sync while failSync
// is set, or only the failSyncAt-th (counting from one over the store's
// life). Commits must fail loudly. synced is the store's size after the
// last Sync that succeeded: what a device that kept nothing unsynced holds.
type faultStore struct {
	wal.Store
	failAppend atomic.Bool
	failSync   atomic.Bool
	failSyncAt atomic.Int64
	syncs      atomic.Int64
	synced     atomic.Int64
}

func (f *faultStore) Append(b []byte) error {
	if f.failAppend.Load() {
		return errors.New("injected log fault")
	}
	return f.Store.Append(b)
}

func (f *faultStore) Sync() error {
	if n := f.syncs.Add(1); f.failSync.Load() || n == f.failSyncAt.Load() {
		return errors.New("injected fsync fault")
	}
	if err := f.Store.Sync(); err != nil {
		return err
	}
	size, err := f.Store.Size()
	if err != nil {
		return err
	}
	f.synced.Store(size)
	return nil
}

// FailSyncSwitch wraps s in a faultStore for the engine-level tests of
// this directory (package db_test), returning the store and its failSync
// switch.
func FailSyncSwitch(s wal.Store) (wal.Store, *atomic.Bool) {
	f := &faultStore{Store: s}
	return f, &f.failSync
}

// FailNthSync wraps s in a faultStore for the engine-level tests of this
// directory: arm(n) makes the n-th Sync after the call fail, and synced
// reports how many bytes of s the Syncs that succeeded made durable.
func FailNthSync(s wal.Store) (store wal.Store, arm func(n int64), synced func() int64) {
	f := &faultStore{Store: s}
	return f, func(n int64) { f.failSyncAt.Store(f.syncs.Load() + n) }, f.synced.Load
}

func TestLogFaultFailsCommit(t *testing.T) {
	fs := &faultStore{Store: wal.NewMemStore()}
	d, err := OpenWith(storage.NewMemDisk(), fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	fs.failAppend.Store(true)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded although the log could not be written")
	}
	fs.failAppend.Store(false)
}

// TestFailedSyncStaysFailed pins the fsyncgate rule on the commit path: a
// batch whose Sync failed may or may not be on the device, so its commit
// never turns durable. No later wait, commit or Flush reports success for
// an LSN at or past the failed batch, even once Sync works again, and the
// failed batch is not written to the store a second time. The log is
// fail-stop: no transaction begins after the failure. A restart on a
// device that kept none of the failed batch recovers exactly the rows
// synced before it.
func TestFailedSyncStaysFailed(t *testing.T) {
	mem := wal.NewMemStore()
	fs := &faultStore{Store: mem}
	disk := storage.NewMemDisk()
	d, err := OpenWith(disk, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx0, _ := d.Begin()
	if _, err := tbl.Insert(tx0, Row{int64(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	synced := mem.Len()
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1)}); err != nil {
		t.Fatal(err)
	}
	fs.failSync.Store(true) // for this one batch
	lsn, err := tx.CommitAsync()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitDurable(lsn); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("wait on a commit whose fsync failed: %v, want wal.ErrLogFailed", err)
	}
	fs.failSync.Store(false)

	if err := d.WaitDurable(lsn); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("second wait on the failed commit: %v, want wal.ErrLogFailed", err)
	}
	if _, err := d.Begin(); !errors.Is(err, wal.ErrLogFailed) || !strings.Contains(err.Error(), "injected fsync fault") {
		t.Errorf("Begin after the failed batch: %v, want wal.ErrLogFailed wrapping the injected fault", err)
	}
	if !d.Log().Failed() {
		t.Error("the log does not report itself failed")
	}
	if err := d.Log().Flush(); err == nil {
		t.Error("Flush after the failed batch succeeded")
	}

	seen := map[wal.LSN]int{}
	if err := d.Log().Iterate(func(r *wal.Record) error {
		seen[r.LSN]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen[lsn] == 0 {
		t.Errorf("the failed batch's commit record %d never reached the store", lsn)
	}
	for l, n := range seen {
		if n != 1 {
			t.Errorf("record %d is in the store %d times", l, n)
		}
	}
	size, _ := fs.Size()
	crashed := disk.SnapshotHead(math.MaxInt)
	if err := d.Close(); err == nil {
		t.Error("Close of a poisoned log reported success")
	}
	if after, _ := fs.Size(); after != size {
		t.Errorf("Close wrote to a poisoned log: %d -> %d bytes", size, after)
	}

	data, _ := mem.ReadAll()
	kept := wal.NewMemStore()
	if err := kept.Append(data[:synced]); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenWith(crashed, kept, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var rows []int64
	if err := d2.Table("t").Scan(nil, func(_ RID, row Row) (bool, error) {
		rows = append(rows, row[0].(int64))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != 0 {
		t.Errorf("recovered rows %v, want [0]", rows)
	}
}

// TestPoisonedLogRollbackReleasesLocks pins how transactions that began
// before the log failed end: an insert returns the log's error instead of
// waiting, under its page latch, for a fresh slot's row lock that a
// refused insert took, and a rollback the log cannot record, or a commit
// it refuses, still restores the rows in memory and releases the locks,
// so a transaction waiting for one gets the log's error instead of a lock
// timeout.
func TestPoisonedLogRollbackReleasesLocks(t *testing.T) {
	fs := &faultStore{Store: wal.NewMemStore()}
	d, err := OpenWith(storage.NewMemDisk(), fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx0, _ := d.Begin()
	rid, err := tbl.Insert(tx0, Row{int64(1), int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	a, _ := d.Begin()
	b, _ := d.Begin()
	c, _ := d.Begin()
	if err := tbl.Update(a, rid, Row{int64(1), int64(1)}); err != nil {
		t.Fatal(err)
	}
	fs.failSync.Store(true)
	if err := d.Log().Flush(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Flush whose fsync failed: %v, want wal.ErrLogFailed", err)
	}
	fs.failSync.Store(false)

	for i, tx := range []*txn.Txn{a, b} {
		if _, err := tbl.Insert(tx, Row{int64(2 + i), int64(0)}); !errors.Is(err, wal.ErrLogFailed) {
			t.Errorf("insert %d on a poisoned log: %v, want wal.ErrLogFailed", i, err)
		}
	}
	if err := a.Abort(); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("rollback on a poisoned log: %v, want wal.ErrLogFailed", err)
	}
	if !aborted(a) {
		t.Error("transaction active or committed after its rollback, want aborted")
	}
	if row, err := tbl.Get(nil, rid); err != nil || row[1].(int64) != 0 {
		t.Errorf("row after the unlogged rollback: %v, %v; want v = 0", row, err)
	}
	if err := tbl.Update(c, rid, Row{int64(1), int64(2)}); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("update of the rolled-back row: %v, want wal.ErrLogFailed", err)
	}
	// A commit the log refuses rolls back too, releasing the row's lock.
	if err := c.Commit(); !errors.Is(err, wal.ErrLogFailed) || !aborted(c) {
		t.Errorf("commit on a poisoned log: %v, aborted %v; want wal.ErrLogFailed, aborted", err, aborted(c))
	}
	if err := tbl.Update(b, rid, Row{int64(1), int64(3)}); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("update after the refused commit: %v, want wal.ErrLogFailed", err)
	}
}

// TestUnloggedRollbackStaysOffDisk pins that a rollback the log cannot
// record never reaches the page store. The undone update was synced before
// the log failed, so a page written back with the rollback but the
// update's LSN would make a restart skip the update's redo and then fail
// to undo it.
func TestUnloggedRollbackStaysOffDisk(t *testing.T) {
	mem := wal.NewMemStore()
	fs := &faultStore{Store: mem}
	disk := storage.NewMemDisk()
	d, err := OpenWith(disk, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	tx0, _ := d.Begin()
	rid, err := tbl.Insert(tx0, Row{int64(1), int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	a, _ := d.Begin()
	if err := tbl.Update(a, rid, Row{int64(1), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	synced := mem.Len()
	// A transaction that writes nothing logs no commit record, so b writes
	// a row: its commit is the batch whose fsync fails.
	b, _ := d.Begin()
	if _, err := tbl.Insert(b, Row{int64(2), int64(0)}); err != nil {
		t.Fatal(err)
	}
	fs.failSync.Store(true)
	if err := b.Commit(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("commit whose fsync failed: %v, want wal.ErrLogFailed", err)
	}
	fs.failSync.Store(false)
	if err := a.Abort(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("rollback on a poisoned log: %v, want wal.ErrLogFailed", err)
	}
	if err := d.Close(); err == nil {
		t.Error("Close of a poisoned log reported success")
	}

	data, _ := mem.ReadAll()
	kept := wal.NewMemStore()
	if err := kept.Append(data[:synced]); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenWith(disk.SnapshotHead(math.MaxInt), kept, Options{})
	if err != nil {
		t.Fatalf("reopen after the unlogged rollback: %v", err)
	}
	defer d2.Close()
	if row, err := d2.Table("t").Get(nil, rid); err != nil || row[1].(int64) != 0 {
		t.Errorf("recovered row %v, %v; want v = 0", row, err)
	}
}

// TestDeadlockVictimCanRetry induces a deadlock between two transactions;
// the victim aborts (releasing the survivor) and its retry succeeds.
func TestDeadlockVictimCanRetry(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TInt}})
	setup, _ := d.Begin()
	ridA, _ := tbl.Insert(setup, Row{int64(1), int64(0)})
	ridB, _ := tbl.Insert(setup, Row{int64(2), int64(0)})
	setup.Commit()

	t1, _ := d.Begin()
	t2, _ := d.Begin()
	if err := tbl.Update(t1, ridA, Row{int64(1), int64(10)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(t2, ridB, Row{int64(2), int64(20)}); err != nil {
		t.Fatal(err)
	}
	// t1 wants B (held by t2); t2 wants A (held by t1): one of them is the
	// deadlock victim. Both contenders run concurrently; the victim's
	// error arrives first (the survivor can only proceed after the victim
	// aborts and releases its locks).
	type outcome struct {
		tx  *txn.Txn
		err error
	}
	res := make(chan outcome, 2)
	go func() { res <- outcome{t1, tbl.Update(t1, ridB, Row{int64(2), int64(11)})} }()
	go func() { res <- outcome{t2, tbl.Update(t2, ridA, Row{int64(1), int64(21)})} }()

	first := <-res
	if !errors.Is(first.err, txn.ErrDeadlock) {
		t.Fatalf("first outcome should be the deadlock victim, got %v", first.err)
	}
	if err := first.tx.Abort(); err != nil {
		t.Fatal(err)
	}
	second := <-res
	if second.err != nil {
		t.Fatalf("survivor failed: %v", second.err)
	}
	if err := second.tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Retry of the aborted work succeeds.
	t3, _ := d.Begin()
	if err := tbl.Update(t3, ridA, Row{int64(1), int64(99)}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocatedRowKeepsIdentity fills a page, then grows one row until it
// must relocate to another page; PK and index lookups must follow.
func TestRelocatedRowKeepsIdentity(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{
		{Name: "id", Type: TInt},
		{Name: "tag", Type: TString},
		{Name: "body", Type: TBytes},
	}, "tag")

	// Fill one page with victims.
	tx, _ := d.Begin()
	body := make([]byte, 300)
	for i := int64(1); i <= 12; i++ {
		if _, err := tbl.Insert(tx, Row{i, fmt.Sprintf("tag%d", i), body}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	// Grow row 1 beyond what its page can ever hold.
	tx2, _ := d.Begin()
	huge := make([]byte, 1800)
	if err := tbl.UpdateByPK(tx2, 1, Row{int64(1), "tag1", huge}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	row, _, err := tbl.GetByPK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(row[2].([]byte)) != 1800 {
		t.Fatal("grown row truncated")
	}
	rids, err := tbl.LookupEq("tag", "tag1")
	if err != nil || len(rids) != 1 {
		t.Fatalf("index lost relocated row: %v, %v", rids, err)
	}
	got, err := tbl.Get(nil, rids[0])
	if err != nil || got[0].(int64) != 1 {
		t.Fatalf("index points at wrong row: %v, %v", got, err)
	}
	if tbl.count() != 12 {
		t.Fatalf("Count = %d after relocation", tbl.count())
	}
}

// TestIndexMatchesScanProperty: after a random workload, every row found by
// a full scan is found via the secondary index and vice versa.
func TestIndexMatchesScanProperty(t *testing.T) {
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.CreateTable("t", Schema{
		{Name: "id", Type: TInt},
		{Name: "bucket", Type: TString},
	}, "bucket")
	rng := util.NewRand(99)
	live := map[int64]string{}
	nextID := int64(0)
	for step := 0; step < 600; step++ {
		tx, _ := d.Begin()
		switch rng.Intn(3) {
		case 0, 1:
			nextID++
			bucket := fmt.Sprintf("b%d", rng.Intn(10))
			if _, err := tbl.Insert(tx, Row{nextID, bucket}); err != nil {
				t.Fatal(err)
			}
			live[nextID] = bucket
		case 2:
			if len(live) > 0 {
				var victim int64
				for id := range live {
					victim = id
					break
				}
				if err := tbl.DeleteByPK(tx, victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Scan-side view.
	scanBuckets := map[string]int{}
	err = tbl.Scan(nil, func(_ RID, row Row) (bool, error) {
		scanBuckets[row[1].(string)]++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Index-side view.
	for b := 0; b < 10; b++ {
		bucket := fmt.Sprintf("b%d", b)
		rids, err := tbl.LookupEq("bucket", bucket)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != scanBuckets[bucket] {
			t.Fatalf("bucket %s: index %d vs scan %d", bucket, len(rids), scanBuckets[bucket])
		}
	}
	if tbl.count() != len(live) {
		t.Fatalf("Count = %d, model = %d", tbl.count(), len(live))
	}
}

// aborted reports whether tx ended in a rollback: it has no commit to wait
// for, and it refuses one.
func aborted(tx *txn.Txn) bool {
	if !errors.Is(tx.WaitDurable(), txn.ErrNotActive) {
		return false // committed
	}
	_, err := tx.CommitAsync()
	return errors.Is(err, txn.ErrNotActive)
}
