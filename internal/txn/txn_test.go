package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tendax/internal/wal"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	log, err := wal.Open(wal.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(log, NewLockManager(2*time.Second))
}

// Row keys of the tests: distinct tables, pages and slots.
var (
	k          = Key{Table: 1, Page: 2, Slot: 3}
	a          = Key{Table: 1, Page: 2, Slot: 4}
	b          = Key{Table: 1, Page: 5, Slot: 4}
	row        = Key{Table: 2, Page: 2, Slot: 3}
	counterKey = Key{Table: 3}
)

func TestSharedLocksCoexist(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, k, Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	if err := lm.Acquire(1, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Acquire(2, k, Exclusive) }()
	select {
	case <-acquired:
		t.Fatal("second exclusive acquired while first held")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
}

func TestReacquireAndUpgrade(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, k, Exclusive); err != nil { // sole-holder upgrade
		t.Fatal(err)
	}
	if err := lm.Acquire(1, k, Shared); err != nil { // weaker re-acquire
		t.Fatal(err)
	}
	if got := lm.heldCount(1); got != 1 {
		t.Fatalf("Held = %d, want 1", got)
	}
	lm.ReleaseAll(1)
}

// TestWaiterGrantedOnReleaseAll queues an exclusive request behind the
// single holder of a key and checks that ReleaseAll hands the lock over,
// that the grant is exclusive, and that the entry the key ends with is
// returned to the manager — a later holder of the same key starts clean.
func TestWaiterGrantedOnReleaseAll(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	if err := lm.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- lm.Acquire(2, k, Exclusive) }()
	select {
	case <-granted:
		t.Fatal("exclusive request granted while a shared holder held the key")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if h1, h2 := lm.heldCount(1), lm.heldCount(2); h1 != 0 || h2 != 1 {
		t.Fatalf("Held after hand-over: txn 1 %d, txn 2 %d; want 0 and 1", h1, h2)
	}
	lm.timeout = 20 * time.Millisecond
	if err := lm.Acquire(3, k, Shared); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("shared request against the granted exclusive lock: %v, want ErrLockTimeout", err)
	}
	lm.ReleaseAll(2)
	if n := len(lm.locks); n != 0 {
		t.Fatalf("%d lock entries left after every holder released", n)
	}
	if err := lm.Acquire(3, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	if got := lm.heldCount(3); got != 1 {
		t.Fatalf("Held(3) = %d, want 1", got)
	}
	lm.ReleaseAll(3)
}

func TestDeadlockDetected(t *testing.T) {
	lm := NewLockManager(10 * time.Second)
	if err := lm.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(1, b, Exclusive) }() // 1 waits for 2
	time.Sleep(50 * time.Millisecond)
	err := lm.Acquire(2, a, Exclusive) // 2 waits for 1: cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2) // victim aborts
	if err := <-done; err != nil {
		t.Fatalf("survivor got %v", err)
	}
	lm.ReleaseAll(1)
}

func TestLockTimeout(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	if err := lm.Acquire(1, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	err := lm.Acquire(2, k, Exclusive)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	lm.ReleaseAll(1)
}

func TestSharedQueueBehindExclusiveWaiter(t *testing.T) {
	// A queued X waiter must not be starved by later S requests.
	lm := NewLockManager(5 * time.Second)
	if err := lm.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() { xDone <- lm.Acquire(2, k, Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	sDone := make(chan error, 1)
	go func() { sDone <- lm.Acquire(3, k, Shared) }()
	select {
	case <-sDone:
		t.Fatal("later shared request jumped the exclusive waiter")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
}

func TestTxnLifecycle(t *testing.T) {
	m := newManager(t)
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.state != Active {
		t.Fatal("new txn not active")
	}
	if err := tx.Lock(Key{Table: 4, Page: 1}, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.state != Committed {
		t.Fatal("txn not committed")
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit = %v, want ErrNotActive", err)
	}
	if m.activeCount() != 0 {
		t.Fatal("active count nonzero after commit")
	}
}

// recorder is an Undoer that notes the slot of every entry it reverses.
type recorder struct{ order []uint32 }

func (r *recorder) Undo(_ *Txn, u *Undo) error {
	r.order = append(r.order, u.Slot)
	return nil
}

func TestAbortRunsUndoInReverse(t *testing.T) {
	m := newManager(t)
	tx, _ := m.Begin()
	r := &recorder{}
	for slot := uint32(1); slot <= 3; slot++ {
		tx.OnUndo(Undo{By: r, Slot: slot})
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if o := r.order; len(o) != 3 || o[0] != 3 || o[1] != 2 || o[2] != 1 {
		t.Fatalf("undo order = %v, want [3 2 1]", o)
	}
}

// TestOnUndoAllocatesNothingInline checks that registering as many entries
// as the Txn holds inline allocates nothing.
func TestOnUndoAllocatesNothingInline(t *testing.T) {
	m := newManager(t)
	r, rec := &recorder{}, []byte("record")
	allocs := testing.AllocsPerRun(100, func() {
		tx, _ := m.Begin()
		for i := 0; i < inlineUndo; i++ {
			tx.OnUndo(Undo{By: r, Op: 1, Page: 7, Slot: uint32(i), Rec: rec, Prev: 3})
		}
		_, _ = tx.CommitAsync()
	})
	if allocs > 1 { // the Txn itself
		t.Fatalf("%v allocations per transaction of %d undo entries, want 1 (the Txn)", allocs, inlineUndo)
	}
}

func TestCommitReleasesLocksForWaiters(t *testing.T) {
	m := newManager(t)
	t1, _ := m.Begin()
	if err := t1.Lock(row, Exclusive); err != nil {
		t.Fatal(err)
	}
	t2, _ := m.Begin()
	got := make(chan error, 1)
	go func() { got <- t2.Lock(row, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	t2.Commit()
}

func TestManagerSeedIDs(t *testing.T) {
	m := newManager(t)
	m.SeedIDs(100)
	tx, _ := m.Begin()
	if tx.id <= 100 {
		t.Fatalf("txn id %d not above seed floor", tx.id)
	}
}

func TestConcurrentIncrementsSerialized(t *testing.T) {
	// 16 goroutines × 25 increments on one logical counter protected by an
	// exclusive lock: strict 2PL must serialize them perfectly.
	m := newManager(t)
	var counter int
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx, err := m.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Lock(counterKey, Exclusive); err != nil {
					errs <- err
					return
				}
				counter++
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if counter != 400 {
		t.Fatalf("counter = %d, want 400", counter)
	}
}

// TestFinishedTxnDropsUndo checks that a committed or aborted transaction
// forgets its undo entries, inline or spilled, so a Txn that a durability
// waiter still holds does not keep the records they name alive.
func TestFinishedTxnDropsUndo(t *testing.T) {
	m := newManager(t)
	for _, commit := range []bool{true, false} {
		for _, n := range []int{inlineUndo, inlineUndo + 3} {
			tx, err := m.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				tx.OnUndo(Undo{By: &recorder{}, Rec: []byte("record")})
			}
			if commit {
				_, err = tx.CommitAsync()
			} else {
				err = tx.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			if tx.undo != nil {
				t.Errorf("commit=%v, %d entries: %d undo entries kept", commit, n, len(tx.undo))
			}
			for i, u := range tx.undoBuf {
				if u.By != nil || u.Rec != nil {
					t.Errorf("commit=%v, %d entries: inline undo entry %d kept", commit, n, i)
				}
			}
		}
	}
}
