package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitDurability drives many concurrent committers through the
// background flusher and verifies every record they waited on is readable
// back from the store in LSN order.
func TestGroupCommitDurability(t *testing.T) {
	store := &countSyncStore{MemStore: NewMemStore()}
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
	if store.syncs.Load() == 0 {
		t.Fatal("flusher never synced")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// countSyncStore is a MemStore that counts its Syncs.
type countSyncStore struct {
	*MemStore
	syncs atomic.Int64
}

func (s *countSyncStore) Sync() error {
	s.syncs.Add(1)
	return s.MemStore.Sync()
}

// heldSyncStore is a countSyncStore whose Sync blocks until release is
// closed, signalling entered each time a Sync begins.
type heldSyncStore struct {
	countSyncStore
	entered chan struct{}
	release chan struct{}
}

func (s *heldSyncStore) Sync() error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.countSyncStore.Sync()
}

// TestGroupCommitCoalescesSyncs pins that group commit coalesces: commits
// that arrive while a sync is in flight share the next sync instead of
// paying one each. The first commit's sync is held open until seven more
// commits have been appended, so the schedule is fixed: one sync for the
// first commit, one for the other seven.
func TestGroupCommitCoalescesSyncs(t *testing.T) {
	store := &heldSyncStore{countSyncStore: countSyncStore{MemStore: NewMemStore()},
		entered: make(chan struct{}, 1), release: make(chan struct{})}
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
	if syncs := store.syncs.Load(); syncs != 2 {
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

// copyingStore keeps a copy of every batch the flusher hands it, taken in
// two halves with a yield between, so an appender writing into a batch
// buffer before the store is done with it shows as a torn copy (and as a
// data race under -race).
type copyingStore struct {
	*MemStore
	mu      sync.Mutex
	batches [][]byte
}

func (s *copyingStore) Append(b []byte) error {
	c := make([]byte, len(b))
	half := len(b) / 2
	copy(c, b[:half])
	runtime.Gosched()
	copy(c[half:], b[half:])
	s.mu.Lock()
	s.batches = append(s.batches, c)
	s.mu.Unlock()
	return s.MemStore.Append(b)
}

// TestGroupCommitReusesBatchBuffer runs concurrent writers across hundreds
// of flusher batches, each batch written from a buffer an earlier batch
// used. Every batch the store copied must still decode to its own records
// once later batches have reused the buffer: one whole frame each, LSNs in
// order across batches, each record's payload the one its writer appended,
// and every record exactly once.
func TestGroupCommitReusesBatchBuffer(t *testing.T) {
	store := &copyingStore{MemStore: NewMemStore()}
	log := openLog(t, store)
	const writers, per = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := log.Append(&Record{
					Type: RecUpdate, TxnID: uint64(w + 1), Op: OpInsert,
					Slot: uint32(i), After: []byte(fmt.Sprintf("writer %d record %d", w, i)),
				})
				if err == nil {
					err = log.WaitFlushed(lsn)
				}
				if err != nil {
					errs <- err
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
	if n := len(store.batches); n < 100 {
		t.Fatalf("the writers' records went out in %d batches, want at least 100", n)
	}
	seen := make(map[string]bool)
	var last LSN
	for bi, batch := range store.batches {
		err := Walk(batch, func(r *Record, end, frameEnd int) bool {
			if end == frameEnd && end != len(batch) {
				t.Errorf("batch %d: a frame ends at byte %d of %d, want one frame per batch", bi, end, len(batch))
			}
			want := fmt.Sprintf("writer %d record %d", r.TxnID-1, r.Slot)
			if r.LSN != last+1 || string(r.After) != want || seen[want] {
				t.Errorf("batch %d: record LSN %d (after %d) carries %q, want %q once", bi, r.LSN, last, r.After, want)
			}
			last = r.LSN
			seen[want] = true
			return true
		})
		if err != nil {
			t.Fatalf("batch %d of %d no longer decodes: %v", bi, len(store.batches), err)
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("the batches hold %d distinct records, want %d", len(seen), writers*per)
	}
}

// discardStore accepts every batch and keeps nothing, so the only
// allocations an append-and-flush cycle shows are the log's own.
type discardStore struct{ *MemStore }

func (discardStore) Append([]byte) error { return nil }

// TestAppendAllocsAfterFlusherCycles pins the WAL's share of a commit:
// once the flusher has cycled, its spare buffer has the capacity of a
// batch, so appending a record and flushing it allocates nothing.
func TestAppendAllocsAfterFlusherCycles(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	log := openLog(t, discardStore{NewMemStore()})
	r := &Record{Type: RecUpdate, TxnID: 1, Op: OpInsert, Owner: 3, After: make([]byte, 120)}
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		if _, e := log.Append(r); e != nil && err == nil {
			err = e
		}
		if e := log.Flush(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("appending and flushing a record allocated %.0f times, want 0", allocs)
	}
}
