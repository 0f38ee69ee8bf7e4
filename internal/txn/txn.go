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

// UndoFunc reverses one operation of a transaction during a runtime abort.
// The storage layer registers one per mutation; it must write the matching
// compensation log record itself.
type UndoFunc func() error

// inlineUndo is how many undo entries a Txn holds without allocating: a
// one-key edit registers four (the character row's and the op row's heap
// insert and index entries).
const inlineUndo = 4

// Txn is one transaction: a unit of atomicity, durability and isolation.
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	id        uint64
	mgr       *Manager
	firstLSN  wal.LSN // begin record: the tail of the undo chain
	lastLSN   wal.LSN
	commitLSN wal.LSN
	undo      []UndoFunc
	undoBuf   [inlineUndo]UndoFunc // undo's first entries
	state     State
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// FirstLSN returns the LSN of the transaction's begin record. A fuzzy
// checkpoint must never let log truncation pass the smallest FirstLSN of
// any active transaction, or a crash-time rollback would find its undo
// chain cut.
func (t *Txn) FirstLSN() wal.LSN { return t.firstLSN }

// State returns the lifecycle state.
func (t *Txn) State() State { return t.state }

// LastLSN returns the LSN of the transaction's most recent log record; the
// storage layer uses it to chain undo records.
func (t *Txn) LastLSN() wal.LSN { return t.lastLSN }

// SetLastLSN records the transaction's most recent log record.
func (t *Txn) SetLastLSN(lsn wal.LSN) { t.lastLSN = lsn }

// OnUndo registers fn to be run (in reverse order) if the transaction
// aborts.
func (t *Txn) OnUndo(fn UndoFunc) { t.undo = append(t.undo, fn) }

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
// covers that LSN (WaitDurable). Releasing locks before durability is safe:
// any dependent transaction's commit record is appended after this one, so
// group commit can never make the dependent durable first. A commit record
// a poisoned log refuses aborts the transaction (see Abort).
func (t *Txn) CommitAsync() (wal.LSN, error) {
	if t.state != Active {
		return 0, ErrNotActive
	}
	lsn, err := t.mgr.log.Append(&wal.Record{Type: wal.RecCommit, TxnID: t.id, PrevLSN: t.lastLSN})
	if err != nil {
		if errors.Is(err, wal.ErrLogFailed) {
			_ = t.Abort() // returns err again
		}
		return 0, err
	}
	t.lastLSN = lsn
	t.commitLSN = lsn
	t.state = Committed
	t.dropUndo()
	t.mgr.locks.ReleaseAll(t.id)
	t.mgr.finish(t.id)
	return lsn, nil
}

// WaitDurable blocks until the transaction's commit record is durable. It
// is a no-op error to call it before CommitAsync.
func (t *Txn) WaitDurable() error {
	if t.state != Committed {
		return ErrNotActive
	}
	return t.mgr.log.WaitFlushed(t.commitLSN)
}

// CommitLSN returns the LSN of the commit record (zero before CommitAsync).
func (t *Txn) CommitLSN() wal.LSN { return t.commitLSN }

// Commit makes the transaction's effects durable and visible, then releases
// its locks. It is CommitAsync followed by WaitDurable.
func (t *Txn) Commit() error {
	if _, err := t.CommitAsync(); err != nil {
		return err
	}
	return t.WaitDurable()
}

// Abort rolls back every operation of the transaction (newest first), logs
// the abort, and releases its locks. The abort-record flush is the
// sanctioned exception to the group-commit rule: rollbacks are the rare
// failure path, and the undo must be durable before the row locks are
// released, even when the caller still holds a document lock.
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
		if err := t.undo[i](); err != nil {
			if !errors.Is(err, wal.ErrLogFailed) {
				return err
			}
			logErr = err
		}
	}
	if logErr == nil {
		lsn, err := t.mgr.log.Append(&wal.Record{Type: wal.RecAbort, TxnID: t.id, PrevLSN: t.lastLSN})
		if err == nil {
			t.lastLSN = lsn
			err = t.mgr.log.Flush()
		}
		if err != nil && !errors.Is(err, wal.ErrLogFailed) {
			return err
		}
		logErr = err
	}
	t.state = Aborted
	t.dropUndo()
	t.mgr.locks.ReleaseAll(t.id)
	t.mgr.finish(t.id)
	return logErr
}

// dropUndo forgets the undo entries of a finished transaction, so a Txn a
// durability waiter still holds does not keep the records they captured
// alive.
func (t *Txn) dropUndo() {
	t.undo = nil
	t.undoBuf = [inlineUndo]UndoFunc{}
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
	for {
		cur := m.nextID.Load()
		if cur >= floor {
			return
		}
		if m.nextID.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// Begin starts a new transaction. The begin record is appended and the
// transaction registered under one critical section, so a concurrent
// ActiveSnapshot can never observe a begin LSN it fails to account for —
// the invariant fuzzy-checkpoint truncation depends on.
func (m *Manager) Begin() (*Txn, error) {
	id := m.nextID.Add(1)
	t := &Txn{id: id, mgr: m, state: Active}
	t.undo = t.undoBuf[:0]
	m.mu.Lock()
	lsn, err := m.log.Append(&wal.Record{Type: wal.RecBegin, TxnID: id})
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	t.firstLSN = lsn
	t.lastLSN = lsn
	m.active[id] = t
	m.mu.Unlock()
	return t, nil
}

// ActiveSnapshot captures the active-transaction table for a fuzzy
// checkpoint: every in-flight transaction with the LSN of its begin record.
// Transactions beginning concurrently are either captured or carry a begin
// LSN above the checkpoint's begin record (Begin appends and registers
// atomically), so the snapshot is always safe to truncate against.
func (m *Manager) ActiveSnapshot() []wal.ActiveTxn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.ActiveTxn, 0, len(m.active))
	for _, t := range m.active {
		out = append(out, wal.ActiveTxn{ID: t.id, FirstLSN: t.firstLSN})
	}
	return out
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Log exposes the write-ahead log for the storage layer.
func (m *Manager) Log() *wal.Log { return m.log }

// Locks exposes the lock manager.
func (m *Manager) Locks() *LockManager { return m.locks }

// WaitDurable blocks until the log's durable horizon covers lsn — the
// durability barrier used by callers that committed with CommitAsync.
func (m *Manager) WaitDurable(lsn wal.LSN) error { return m.log.WaitFlushed(lsn) }

func (m *Manager) finish(id uint64) {
	m.mu.Lock()
	delete(m.active, id)
	m.mu.Unlock()
}
