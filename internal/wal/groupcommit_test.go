package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitDurability drives many concurrent committers through the
// background flusher and verifies every record they waited on is readable
// back from the store in LSN order.
func TestGroupCommitDurability(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	log.StartGroupCommit(time.Millisecond)

	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txnID := uint64(w*per + i + 1)
				if _, err := log.Append(&Record{Type: RecBegin, TxnID: txnID}); err != nil {
					errs <- err
					return
				}
				lsn, err := log.Append(&Record{Type: RecCommit, TxnID: txnID})
				if err != nil {
					errs <- err
					return
				}
				if err := log.WaitFlushed(lsn); err != nil {
					errs <- err
					return
				}
				if flushed := log.FlushedLSN(); flushed < lsn {
					errs <- fmt.Errorf("WaitFlushed(%d) returned with FlushedLSN=%d", lsn, flushed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := LSN(0)
	count := 0
	if err := log.Iterate(func(r *Record) error {
		if r.LSN != want+1 {
			return fmt.Errorf("LSN gap: %d after %d", r.LSN, want)
		}
		want = r.LSN
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != writers*per*2 {
		t.Fatalf("store holds %d records, want %d", count, writers*per*2)
	}
	if log.SyncCount() == 0 {
		t.Fatal("flusher never synced")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// heldSyncStore is a MemStore whose Sync blocks until release is closed,
// signalling entered each time a Sync begins.
type heldSyncStore struct {
	*MemStore
	entered chan struct{}
	release chan struct{}
}

func (s *heldSyncStore) Sync() error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.MemStore.Sync()
}

// TestGroupCommitCoalescesSyncs pins that group commit coalesces: commits
// that arrive while a sync is in flight share the next sync instead of
// paying one each. The first commit's sync is held open until seven more
// commits have been appended, so the schedule is fixed: one sync for the
// first commit, one for the other seven.
func TestGroupCommitCoalescesSyncs(t *testing.T) {
	store := &heldSyncStore{MemStore: NewMemStore(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	log := openLog(t, store)

	const commits = 8
	var wg sync.WaitGroup
	errs := make(chan error, commits)
	commit := func(txnID uint64) {
		lsn, err := log.Append(&Record{Type: RecCommit, TxnID: txnID})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- log.WaitFlushed(lsn)
		}()
	}
	commit(1)
	<-store.entered // the flusher is inside the first commit's sync
	for id := uint64(2); id <= commits; id++ {
		commit(id)
	}
	close(store.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if syncs := log.SyncCount(); syncs != 2 {
		t.Fatalf("%d commits took %d syncs, want 2 (one held, one shared)", commits, syncs)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCloseFlushesPending verifies that records appended but not
// yet awaited still reach the store on Close.
func TestGroupCommitCloseFlushesPending(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	if _, err := log.Append(&Record{Type: RecBegin, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	lsn, err := log.Append(&Record{Type: RecCommit, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2 := openLog(t, store)
	if log2.FlushedLSN() != lsn {
		t.Fatalf("reopened FlushedLSN=%d, want %d", log2.FlushedLSN(), lsn)
	}
}

// TestGroupCommitFlushSemantics: Flush must be a full durability barrier for everything appended so far.
func TestGroupCommitFlushSemantics(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	log.StartGroupCommit(time.Millisecond)
	var last LSN
	for i := uint64(1); i <= 5; i++ {
		lsn, err := log.Append(&Record{Type: RecUpdate, TxnID: i, Op: OpInsert, Page: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if log.FlushedLSN() < last {
		t.Fatalf("Flush returned with FlushedLSN=%d, want >=%d", log.FlushedLSN(), last)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAfterCloseFails: a closed log refuses records with ErrClosed
// instead of buffering them where no flusher will ever write them.
func TestAppendAfterCloseFails(t *testing.T) {
	log := openLog(t, NewMemStore())
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(&Record{Type: RecBegin, TxnID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}
