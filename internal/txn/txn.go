package txn

import (
	"errors"
	"sync"
	"sync/atomic"

	"tendax/internal/wal"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// ErrNotActive reports an operation on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Undo is one entry of a transaction's undo log: a value, not a closure,
// so registering one allocates nothing while the Txn's inline entries have
// room. By reverses it during a runtime abort, writing any compensation
// log record that takes itself; the other fields are By's to interpret
// (for the storage layer: the mutation's kind, the row's page and slot,
// the record it wrote or replaced, and the LSN the CLR's UndoNext names).
// Rec may alias a buffer the caller reuses once the transaction has ended,
// never before.
type Undo struct {
	By   Undoer
	Rec  []byte
	Page uint64
	Prev wal.LSN
	Slot uint32
	Op   uint8
}

// Undoer reverses undo entries. The storage layer's heaps and tables and
// the engine's documents implement it with pointer receivers, so an entry
// naming one costs no allocation.
type Undoer interface {
	Undo(tx *Txn, u *Undo) error
}

// inlineUndo is how many undo entries a Txn holds without allocating: a
// one-key edit registers two (the run row's and the op row's insert), a
// delete up to four.
const inlineUndo = 4

// Txn is one transaction: a unit of atomicity, durability and isolation.
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	id  uint64
	mgr *Manager
	// firstLSN is the first logged record, the tail of the undo chain (0
	// while it has logged nothing): log truncation must never pass the
	// smallest nonzero firstLSN of an active transaction (ActiveSnapshot).
	firstLSN  wal.LSN
	lastLSN   wal.LSN
	commitLSN wal.LSN
	undo      []Undo
	undoBuf   [inlineUndo]Undo // undo's first entries
	state     State
}

// LastLSN returns the LSN of the transaction's most recent log record; the
// storage layer uses it to chain undo records.
func (t *Txn) LastLSN() wal.LSN { return t.lastLSN }

// Append logs r as the transaction's next record, filling in its TxnID and
// PrevLSN. The first record opens the transaction in the log: it is
// appended and the transaction registered under one critical section, so
// ActiveSnapshot never misses a first LSN below a checkpoint's begin.
func (t *Txn) Append(r *wal.Record) (wal.LSN, error) {
	m, first := t.mgr, t.firstLSN == 0
	r.TxnID, r.PrevLSN = t.id, t.lastLSN
	if first {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	lsn, err := m.log.Append(r)
	if err == nil && first {
		t.firstLSN, m.active[t.id] = lsn, t
	}
	if err == nil {
		t.lastLSN = lsn
	}
	return lsn, err
}

// OnUndo registers u to be reversed (newest first) if the transaction
// aborts.
func (t *Txn) OnUndo(u Undo) { t.undo = append(t.undo, u) }

// Lock acquires key in mode under strict 2PL; the lock is held until the
// transaction finishes.
func (t *Txn) Lock(key Key, mode Mode) error {
	if t.state != Active {
		return ErrNotActive
	}
	return t.mgr.locks.Acquire(t.id, key, mode)
}

// CommitAsync appends the transaction's commit record and releases its
// locks, WITHOUT waiting for the record to reach disk. It returns the
// commit LSN; the transaction is durable once the log's flushed horizon
// covers that LSN (WaitDurable); one that logged nothing logs no commit and
// returns LSN 0, always durable. Releasing locks before durability is safe:
// any dependent transaction's commit record is appended after this one, so
// group commit can never make the dependent durable first. A commit record
// a poisoned log refuses aborts the transaction (see Abort).
func (t *Txn) CommitAsync() (wal.LSN, error) {
	if t.state != Active {
		return 0, ErrNotActive
	}
	var err error
	if t.firstLSN != 0 {
		t.commitLSN, err = t.Append(&wal.Record{Type: wal.RecCommit})
	} else {
		err = t.mgr.log.Err() // commits nothing, but not behind a failure either
	}
	if err != nil {
		if errors.Is(err, wal.ErrLogFailed) {
			_ = t.Abort() // returns err again
		}
		return 0, err
	}
	t.end(Committed)
	return t.commitLSN, nil
}

// WaitDurable blocks until the transaction's commit record is durable. It
// is a no-op error to call it before CommitAsync.
func (t *Txn) WaitDurable() error {
	if t.state != Committed {
		return ErrNotActive
	}
	return t.mgr.log.WaitFlushed(t.commitLSN)
}

// Commit makes the transaction's effects durable and visible, then releases
// its locks. It is CommitAsync followed by WaitDurable.
func (t *Txn) Commit() error {
	if _, err := t.CommitAsync(); err != nil {
		return err
	}
	return t.WaitDurable()
}

// Abort rolls back every operation of the transaction (newest first), logs
// the abort if it logged anything, and releases its locks. The abort-record
// flush is the sanctioned exception to the group-commit rule: rollbacks are
// the rare failure path, and the undo must be durable before the row locks
// are released, even when the caller still holds a document lock.
//
// On a poisoned log (wal.ErrLogFailed) the rollback cannot be logged: every
// undo entry still restores its page in memory, and the transaction ends
// and releases its locks, returning the log's error. Nothing commits
// behind the failure, so no transaction can make a dependence on the
// unlogged rollback durable; the heap keeps the pages it restored off
// disk, and a restart's recovery undoes the transaction from the log.
// Holding the locks instead would stall every waiter until its lock
// timeout.
//
//tendax:locksync-nonblocking
func (t *Txn) Abort() error {
	if t.state != Active {
		return ErrNotActive
	}
	var logErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i].By.Undo(t, &t.undo[i]); err != nil {
			if !errors.Is(err, wal.ErrLogFailed) {
				return err
			}
			logErr = err
		}
	}
	if logErr == nil && t.firstLSN != 0 {
		_, err := t.Append(&wal.Record{Type: wal.RecAbort})
		if err == nil {
			err = t.mgr.log.Flush()
		}
		if err != nil && !errors.Is(err, wal.ErrLogFailed) {
			return err
		}
		logErr = err
	}
	t.end(Aborted)
	return logErr
}

// end finishes the transaction in state s: it releases its locks, leaves
// the active set and forgets its undo entries, so a Txn a durability waiter
// still holds does not keep the records they name alive, and the buffers
// those records live in may be reused.
func (t *Txn) end(s State) {
	t.state, t.undo, t.undoBuf = s, nil, [inlineUndo]Undo{}
	t.mgr.locks.ReleaseAll(t.id)
	if m := t.mgr; t.firstLSN != 0 {
		m.mu.Lock()
		delete(m.active, t.id)
		m.mu.Unlock()
	}
}

// Manager creates transactions and tracks the active set.
type Manager struct {
	log    *wal.Log
	locks  *LockManager
	nextID atomic.Uint64

	mu     sync.Mutex
	active map[uint64]*Txn
}

// NewManager returns a transaction manager over log and locks.
func NewManager(log *wal.Log, locks *LockManager) *Manager {
	return &Manager{log: log, locks: locks, active: make(map[uint64]*Txn)}
}

// SeedIDs makes future transaction IDs strictly greater than floor (used
// after recovery so new transactions do not collide with logged ones).
func (m *Manager) SeedIDs(floor uint64) {
	for cur := m.nextID.Load(); cur < floor; cur = m.nextID.Load() {
		if m.nextID.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// Begin starts a transaction. It logs nothing: the first record opens it
// (Txn.Append). Like Append, it fails once the log is poisoned or closed.
func (m *Manager) Begin() (*Txn, error) {
	if err := m.log.Err(); err != nil {
		return nil, err
	}
	t := &Txn{id: m.nextID.Add(1), mgr: m, state: Active}
	t.undo = t.undoBuf[:0]
	return t, nil
}

// ActiveSnapshot captures the active-transaction table for a fuzzy
// checkpoint: every in-flight transaction that has logged, with its first
// LSN. One logging its first record concurrently is either captured or gets
// an LSN above the checkpoint's begin record (Txn.Append), so the snapshot
// is always safe to truncate against.
func (m *Manager) ActiveSnapshot() []wal.ActiveTxn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.ActiveTxn, 0, len(m.active))
	for _, t := range m.active {
		out = append(out, wal.ActiveTxn{ID: t.id, FirstLSN: t.firstLSN})
	}
	return out
}

// activeCount returns the number of in-flight transactions that logged.
func (m *Manager) activeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
