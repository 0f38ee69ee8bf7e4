// Package txn provides transactions for the TeNDaX embedded database:
// strict two-phase locking with wait-for-graph deadlock detection, and
// transaction lifecycle (begin, commit, abort) wired to the write-ahead log.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrDeadlock is returned to the transaction chosen as the deadlock victim;
// the caller must abort the transaction and may retry it.
var ErrDeadlock = errors.New("txn: deadlock detected, transaction chosen as victim")

// ErrLockTimeout reports that a lock wait exceeded the manager's timeout
// (a safety net; deadlocks are normally detected eagerly).
var ErrLockTimeout = errors.New("txn: lock wait timeout")

// Key names a lockable resource: one row of one table, by its heap
// position. A value, not a string, so naming a row for the lock manager
// allocates nothing.
type Key struct {
	Table uint64
	Page  uint64
	Slot  uint32
}

type waiter struct {
	txn   uint64
	mode  Mode
	ready chan error
}

type holding struct {
	txn  uint64
	mode Mode
}

// lockEntry is one key's holders and FIFO wait queue. A row lock almost
// always has a single holder, so holders is a short slice searched
// linearly; entries are recycled through LockManager.free with their
// capacity, so granting an uncontended lock allocates nothing.
type lockEntry struct {
	holders []holding
	queue   []*waiter
}

func (e *lockEntry) holder(txn uint64) (int, bool) {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			return i, true
		}
	}
	return -1, false
}

// grant makes txn a holder of e in at least mode and reports whether it was
// not a holder before.
func (e *lockEntry) grant(txn uint64, mode Mode) bool {
	if i, ok := e.holder(txn); ok {
		e.holders[i].mode = maxMode(e.holders[i].mode, mode)
		return false
	}
	e.holders = append(e.holders, holding{txn, mode})
	return true
}

// maxFree bounds what a lock manager keeps for reuse: at most maxFree
// released entries and held-key lists, and no list longer than maxFree.
const maxFree = 1024

// LockManager implements strict two-phase locking over row keys with eager
// deadlock detection on the waits-for graph.
type LockManager struct {
	mu      sync.Mutex
	locks   map[Key]*lockEntry
	held    map[uint64][]Key           // txn -> keys it holds, each once
	waits   map[uint64]map[uint64]bool // waiter txn -> holder txns
	timeout time.Duration

	free     []*lockEntry // released entries, holders and queue emptied
	freeHeld [][]Key      // released held-key lists, emptied
}

// NewLockManager returns a lock manager. timeout bounds any single lock
// wait; zero means a 10s default.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &LockManager{
		locks:   make(map[Key]*lockEntry),
		held:    make(map[uint64][]Key),
		waits:   make(map[uint64]map[uint64]bool),
		timeout: timeout,
	}
}

// Acquire takes key in mode on behalf of txn, blocking while incompatible
// locks are held. It returns ErrDeadlock if waiting would close a cycle in
// the waits-for graph. Re-acquiring an already-held key (same or weaker
// mode) is a no-op; Shared→Exclusive upgrades are supported.
func (lm *LockManager) Acquire(txn uint64, key Key, mode Mode) error {
	lm.mu.Lock()
	e := lm.locks[key]
	if e == nil {
		if n := len(lm.free); n > 0 {
			e = lm.free[n-1]
			lm.free = lm.free[:n-1]
		} else {
			e = &lockEntry{}
		}
		lm.locks[key] = e
	}

	if i, ok := e.holder(txn); ok {
		if e.holders[i].mode >= mode { // already strong enough
			lm.mu.Unlock()
			return nil
		}
		// Upgrade: allowed immediately iff sole holder.
		if len(e.holders) == 1 {
			e.holders[i].mode = Exclusive
			lm.mu.Unlock()
			return nil
		}
	}

	if lm.compatible(e, txn, mode) && len(e.queue) == 0 {
		if e.grant(txn, mode) {
			lm.recordHeld(txn, key)
		}
		lm.mu.Unlock()
		return nil
	}

	// Must wait: record waits-for edges and check for a cycle.
	blockers := lm.blockers(e, txn, mode)
	if len(lm.waits[txn]) == 0 {
		lm.waits[txn] = make(map[uint64]bool)
	}
	for b := range blockers {
		lm.waits[txn][b] = true
	}
	if lm.cycleFrom(txn) {
		delete(lm.waits, txn)
		lm.mu.Unlock()
		return ErrDeadlock
	}
	w := &waiter{txn: txn, mode: mode, ready: make(chan error, 1)}
	e.queue = append(e.queue, w)
	lm.mu.Unlock()

	select {
	case err := <-w.ready:
		return err
	case <-time.After(lm.timeout):
		lm.mu.Lock()
		// Remove w from the queue if still present; it may have been
		// granted concurrently, in which case take the grant.
		select {
		case err := <-w.ready:
			lm.mu.Unlock()
			return err
		default:
		}
		for i, q := range e.queue {
			if q == w {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		delete(lm.waits, txn)
		lm.mu.Unlock()
		return ErrLockTimeout
	}
}

// ReleaseAll drops every lock held by txn and wakes compatible waiters.
// Under strict 2PL this is called exactly once, at commit or abort.
func (lm *LockManager) ReleaseAll(txn uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	keys := lm.held[txn]
	delete(lm.held, txn)
	delete(lm.waits, txn)
	for _, key := range keys {
		e := lm.locks[key]
		if e == nil {
			continue
		}
		if i, ok := e.holder(txn); ok {
			last := len(e.holders) - 1
			e.holders[i] = e.holders[last]
			e.holders = e.holders[:last]
		}
		lm.grantWaitersLocked(key, e)
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(lm.locks, key)
			if len(lm.free) < maxFree {
				e.queue = nil
				lm.free = append(lm.free, e)
			}
		}
	}
	if keys != nil && cap(keys) <= maxFree && len(lm.freeHeld) < maxFree {
		lm.freeHeld = append(lm.freeHeld, keys[:0])
	}
	// txn no longer blocks anyone.
	for _, blockedOn := range lm.waits {
		delete(blockedOn, txn)
	}
}

// Held returns the number of keys txn currently holds (for tests/metrics).
func (lm *LockManager) Held(txn uint64) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.held[txn])
}

// recordHeld notes that txn became a holder of key.
func (lm *LockManager) recordHeld(txn uint64, key Key) {
	keys, ok := lm.held[txn]
	if !ok {
		if n := len(lm.freeHeld); n > 0 {
			keys = lm.freeHeld[n-1]
			lm.freeHeld = lm.freeHeld[:n-1]
		}
	}
	lm.held[txn] = append(keys, key)
}

// compatible reports whether txn may take key in mode given current holders
// (ignoring the queue).
func (lm *LockManager) compatible(e *lockEntry, txn uint64, mode Mode) bool {
	for _, h := range e.holders {
		if h.txn == txn {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// blockers returns the set of transactions that prevent txn from acquiring
// mode, including holders blocking queued waiters ahead of it.
func (lm *LockManager) blockers(e *lockEntry, txn uint64, mode Mode) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, h := range e.holders {
		if h.txn == txn {
			continue
		}
		if mode == Exclusive || h.mode == Exclusive {
			out[h.txn] = true
		}
	}
	for _, q := range e.queue {
		if q.txn != txn {
			out[q.txn] = true
		}
	}
	return out
}

// cycleFrom reports whether the waits-for graph has a cycle reachable from
// start.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := map[uint64]bool{}
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		if u == start && len(seen) > 0 {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		for v := range lm.waits[u] {
			if dfs(v) {
				return true
			}
		}
		return false
	}
	for v := range lm.waits[start] {
		if dfs(v) {
			return true
		}
	}
	return false
}

// grantWaitersLocked grants queued waiters FIFO while they remain
// compatible with the holders.
func (lm *LockManager) grantWaitersLocked(key Key, e *lockEntry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !lm.compatible(e, w.txn, w.mode) {
			return
		}
		e.queue = e.queue[1:]
		if e.grant(w.txn, w.mode) {
			lm.recordHeld(w.txn, key)
		}
		delete(lm.waits, w.txn)
		w.ready <- nil
	}
}

func maxMode(a, b Mode) Mode {
	if a > b {
		return a
	}
	return b
}
