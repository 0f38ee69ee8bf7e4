// Package wal implements the write-ahead log of the TeNDaX embedded
// database and ARIES-style crash recovery (analysis, redo, undo) over the
// slotted-page heap.
//
// Every mutation of a heap page is logged under the page latch, so its
// record precedes the page to disk (write-ahead rule) and the page LSN only
// grows; a transaction is acknowledged as committed only after its commit
// record is durable. Recovery replays history to restore all committed
// effects and rolls back losers with compensation records, so a crash at
// any point preserves exactly the committed transactions. record.go holds
// the record format.
package wal

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// pendingKick bounds how many bytes may sit in the append buffer before an
// Append wakes the group-commit flusher on its own (commit waiters wake it
// regardless); it caps memory for huge transactions.
const pendingKick = 1 << 20

// Log is the write-ahead log. Append assigns LSNs; Flush makes all appended
// records durable. A commit is durable once Flush returns after appending
// the commit record.
//
// In its default (synchronous) mode every Flush performs its own
// store.Sync. StartGroupCommit switches the log to group-commit mode: a
// single background flusher coalesces all pending records into one
// store.Append+Sync per batch and wakes every waiter whose commit LSN the
// batch covers, so N concurrent committers share one fsync instead of
// paying one each. WaitFlushed is the durability barrier in both modes.
type Log struct {
	mu       sync.Mutex
	store    Store
	nextLSN  LSN
	flushed  LSN
	appended LSN
	pending  []byte

	// Group-commit state (nil / zero while in synchronous mode).
	flusherOn   bool
	groupDelay  time.Duration // max extra coalescing wait per batch
	flushReq    chan struct{} // wakes the flusher (capacity 1)
	flusherDone chan struct{}
	durable     *sync.Cond // broadcast after every batch reaches disk
	flushErr    error      // sticky: a failed batch poisons the log
	closed      bool
	syncs       uint64 // store.Sync calls (batching observability)

	// Self-clocking batch sizing: the flusher waits (up to groupDelay) for
	// as many commits as the previous batch carried before syncing, so a
	// steady stream of N concurrent committers converges on batches of ~N
	// while a single committer never waits at all. pendingCommits is
	// atomic so the coalescing spin can poll it without contending l.mu
	// against the very Appends it is waiting for.
	pendingCommits atomic.Int64 // commit records appended since the last grab
	lastBatchSize  int64        // commit records in the previous batch
}

// Open creates a Log over store, positioning the next LSN after any
// existing records (scanning stops at a torn tail). A log in an older record
// format is refused with ErrFormat: opening it as empty would hand out LSNs
// below the page LSNs already on disk.
func Open(store Store) (*Log, error) {
	l := &Log{store: store, nextLSN: 1}
	err := iterate(store, func(r *Record) error {
		if r.LSN >= l.nextLSN {
			l.nextLSN = r.LSN + 1
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrTorn) {
		return nil, err
	}
	l.flushed = l.nextLSN - 1
	l.appended = l.flushed
	l.durable = sync.NewCond(&l.mu)
	return l, nil
}

// StartGroupCommit switches the log to group-commit mode. maxDelay is the
// longest the flusher waits after picking up work before syncing, letting
// more commits join the batch; zero flushes as soon as the previous sync
// returns (arrivals during a sync still coalesce into the next batch).
// Idempotent; must not be called after Close.
func (l *Log) StartGroupCommit(maxDelay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flusherOn || l.closed {
		return
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	l.flusherOn = true
	l.groupDelay = maxDelay
	l.flushReq = make(chan struct{}, 1)
	l.flusherDone = make(chan struct{})
	go l.flusher()
}

// GroupCommit reports whether the background flusher is running.
func (l *Log) GroupCommit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flusherOn
}

// SyncCount returns the number of store.Sync calls performed so far; the
// ratio of commits to syncs measures group-commit batching.
func (l *Log) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// coalesce implements the self-clocked batch window: after a wake-up the
// flusher briefly yields the CPU (bounded by groupDelay) until as many
// commits as the previous batch carried have enlisted. Committers that just
// woke from the last batch's broadcast get the cycles to finish their next
// transaction and join this batch, instead of landing one sync behind. A
// previous batch of ≤1 commit — the single-writer case — skips the window
// entirely, so an isolated commit only ever pays its own sync.
func (l *Log) coalesce() {
	l.mu.Lock()
	want := l.lastBatchSize
	delay := l.groupDelay
	l.mu.Unlock()
	if want <= 1 || delay <= 0 {
		return
	}
	deadline := time.Now().Add(delay)
	for l.pendingCommits.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// kickLocked wakes the flusher without blocking. Caller holds l.mu.
func (l *Log) kickLocked() {
	select {
	case l.flushReq <- struct{}{}:
	default:
	}
}

// flusher is the group-commit loop: pick up everything appended so far,
// write and sync it as one batch, publish the new durable horizon, repeat.
// Appends are never blocked by a sync in progress — they buffer under l.mu
// while the flusher runs store I/O outside it — which is where the batching
// comes from: a batch absorbs every commit that arrived during the previous
// sync.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		<-l.flushReq
		l.coalesce()
		l.mu.Lock()
		if len(l.pending) == 0 {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		batch := l.pending
		l.pending = nil
		target := l.appended
		grabbed := l.pendingCommits.Swap(0)
		l.mu.Unlock()

		err := l.store.Append(batch)
		if err == nil {
			err = l.store.Sync()
		}

		l.mu.Lock()
		// Concurrency estimate for the next coalescing window: committers
		// in this batch plus committers that arrived while it was syncing.
		// A lone writer blocked on this sync contributes exactly 1, so it
		// never waits; two alternating writers estimate 2 and start
		// sharing a sync instead of leapfrogging forever.
		l.lastBatchSize = grabbed + l.pendingCommits.Load()
		if err != nil {
			l.flushErr = err
		} else {
			l.flushed = target
			l.syncs++
		}
		l.durable.Broadcast()
		closed := l.closed
		more := len(l.pending) > 0
		if more {
			l.kickLocked()
		}
		l.mu.Unlock()
		if closed && !more {
			return
		}
	}
}

// WaitFlushed blocks until every record up to and including lsn is durable.
// It is the commit-side durability barrier: in group-commit mode it enlists
// in the current batch and sleeps until the flusher's sync covers lsn; in
// synchronous mode it flushes inline.
func (l *Log) WaitFlushed(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// An already-durable prefix stays durable regardless of later batch
	// failures, so the horizon check precedes the sticky-error check (the
	// post-wait switch below keeps the same priority).
	if l.flushed >= lsn {
		return nil
	}
	if l.flushErr != nil {
		return l.flushErr
	}
	if !l.flusherOn {
		return l.flushLocked()
	}
	for l.flushed < lsn && l.flushErr == nil && !l.closed {
		l.kickLocked()
		l.durable.Wait()
	}
	switch {
	case l.flushed >= lsn:
		return nil
	case l.flushErr != nil:
		return l.flushErr
	default:
		return ErrClosed
	}
}

// Append adds r to the log, assigning and returning its LSN. The record is
// buffered; call Flush to make it durable.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.nextLSN
	l.nextLSN++
	l.pending = appendFrame(l.pending, r)
	l.appended = r.LSN
	if r.Type == RecCommit {
		l.pendingCommits.Add(1)
	}
	if l.flusherOn && len(l.pending) >= pendingKick {
		l.kickLocked()
	}
	return r.LSN, nil
}

// Flush makes all appended records durable.
func (l *Log) Flush() error {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	return l.WaitFlushed(target)
}

// flushLocked writes and syncs everything pending, synchronously. Caller
// holds l.mu; only used while the group-commit flusher is not running.
func (l *Log) flushLocked() error {
	if l.flushErr != nil {
		return l.flushErr
	}
	if len(l.pending) == 0 {
		return nil
	}
	if err := l.store.Append(l.pending); err != nil {
		return err
	}
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.pending = l.pending[:0]
	l.flushed = l.appended
	l.syncs++
	return nil
}

// FlushedLSN returns the LSN of the last durable record.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Compact discards the entire log and writes a fresh checkpoint record.
// The caller must guarantee that every logged effect is durable in the page
// store (pages flushed) and that no transaction is in flight. LSNs continue
// monotonically: the checkpoint record carries the current high LSN, so
// page LSNs stamped before compaction stay comparable after reopen.
func (l *Log) Compact() error {
	// Drain the group-commit flusher first: with no transaction in flight
	// (the caller's guarantee) the pending buffer stays empty afterwards,
	// so the flusher cannot touch the store while we reset it below.
	if err := l.Flush(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) > 0 {
		if err := l.store.Append(l.pending); err != nil {
			return err
		}
		l.pending = l.pending[:0]
	}
	if err := l.store.Reset(); err != nil {
		return err
	}
	rec := &Record{LSN: l.nextLSN, Type: RecCheckpoint}
	l.nextLSN++
	if err := l.store.Append(appendFrame(nil, rec)); err != nil {
		return err
	}
	if err := l.store.Sync(); err != nil {
		return err
	}
	l.appended = rec.LSN
	l.flushed = rec.LSN
	return nil
}

// Close stops the group-commit flusher (if running), flushes, and closes
// the underlying store.
func (l *Log) Close() error {
	l.mu.Lock()
	wasOn := l.flusherOn
	if !l.closed {
		l.closed = true
		if wasOn {
			l.kickLocked()
		}
	}
	l.mu.Unlock()
	if wasOn {
		<-l.flusherDone
		l.mu.Lock()
		l.flusherOn = false
		l.durable.Broadcast() // release any stragglers with ErrClosed
		l.mu.Unlock()
	}
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.store.Close()
}

// iterate decodes every durable record in order. It returns ErrTorn at a
// torn tail and ErrFormat at an intact record it cannot decode.
func iterate(store Store, fn func(*Record) error) error {
	data, err := store.ReadAll()
	if err != nil {
		return err
	}
	var ferr error
	err = walk(data, func(r *Record, _ int) bool {
		rec := *r // fn may keep it (Recover does)
		ferr = fn(&rec)
		return ferr == nil
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// Iterate replays every durable record in LSN order. A torn tail terminates
// iteration without error (the tail is treated as never written); a record
// that is intact but undecodable fails it with ErrFormat.
func (l *Log) Iterate(fn func(*Record) error) error {
	err := iterate(l.store, fn)
	if errors.Is(err, ErrTorn) {
		return nil
	}
	return err
}
