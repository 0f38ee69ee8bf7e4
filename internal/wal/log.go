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
// the format: one checksummed frame per flushed batch.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrLogFailed reports a log poisoned by a failed batch write or sync. The
// log is fail-stop: every later Append and every wait on a record the
// failure did not make durable returns an error that matches it with
// errors.Is and wraps the store's error, so the engine above is read-only
// until a restart recovers what was synced.
var ErrLogFailed = errors.New("wal: log failed; read-only until restart")

// pendingKick bounds how many bytes may sit in the append buffer before an
// Append wakes the group-commit flusher on its own (commit waiters wake it
// regardless); it caps memory for huge transactions.
const pendingKick = 1 << 20

// Log is the write-ahead log. Append assigns LSNs and buffers the record;
// WaitFlushed is the durability barrier. A single background flusher,
// started by Open, is the only path from the buffer to the store: it
// coalesces all pending records into one frame (several past maxFrame),
// checksums it outside l.mu and writes it with one store.Append+Sync, and
// wakes every waiter whose LSN the batch covers, so N concurrent committers
// share one fsync instead of paying one each. A failed batch poisons the
// log: its error is sticky, and nothing after it reaches the store.
type Log struct {
	mu       sync.Mutex
	store    Store
	nextLSN  LSN
	flushed  LSN
	appended LSN
	pending  []byte // frames of the next batch, their checksums not yet filled in
	frame    int    // where the last frame of pending starts

	groupDelay  time.Duration // max extra coalescing wait per batch
	flushReq    chan struct{} // wakes the flusher (capacity 1)
	flusherDone chan struct{}
	durable     *sync.Cond // broadcast after every batch reaches disk
	flushErr    error      // sticky: a failed batch poisons the log
	closed      bool

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
// existing records, and starts its flusher with no coalescing window. A
// torn tail, the frame a crash cut short, is cut off the store first: left
// there, it would hide every frame appended after it from the next open. A
// log in an older record format is refused with ErrFormat: opening it as
// empty would hand out LSNs below the page LSNs already on disk.
func Open(store Store) (*Log, error) {
	data, err := store.ReadAll()
	if err != nil {
		return nil, err
	}
	l := &Log{store: store, nextLSN: 1}
	whole := 0 // the end of the last whole frame
	err = Walk(data, func(r *Record, _, frameEnd int) bool {
		l.nextLSN = max(l.nextLSN, r.LSN+1)
		whole = frameEnd
		return true
	})
	if errors.Is(err, ErrTorn) {
		err = store.TruncateTail(int64(whole))
	}
	if err != nil {
		return nil, err
	}
	l.flushed = l.nextLSN - 1
	l.appended = l.flushed
	l.durable = sync.NewCond(&l.mu)
	l.flushReq = make(chan struct{}, 1)
	l.flusherDone = make(chan struct{})
	go l.flusher()
	return l, nil
}

// StartGroupCommit sets the flusher's coalescing window: the longest it
// waits after picking up work before syncing, letting more commits join the
// batch. Zero, the window Open starts with, flushes as soon as the previous
// sync returns (arrivals during a sync still coalesce into the next batch).
// The flusher itself always runs from Open; the method keeps its name for
// the keystroke-bench harness, which calls it.
func (l *Log) StartGroupCommit(maxDelay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groupDelay = max(maxDelay, 0)
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
// sync. After a failed batch it drops whatever is pending instead of
// writing it: a record behind the failure must not become durable, nor may
// the failed batch be written a second time.
//
// The flusher recycles batch buffers: once a batch's Append and Sync have
// returned it keeps the buffer as its spare (a Store keeps no reference to
// what it was given), and the next swap hands the spare back, emptied, as
// the append buffer. Appends thus fill memory that already has the
// capacity of a recent batch instead of regrowing it from nothing. The
// spare is the flusher's alone between swaps. A buffer that grew past
// pendingKick is not kept, nor one whose batch used less than a quarter
// of it, so a bulk load's buffers do not stay with a log that has gone
// back to single keys.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	var spare []byte
	for {
		<-l.flushReq
		l.coalesce()
		l.mu.Lock()
		if l.flushErr != nil {
			l.pending = nil
		}
		if len(l.pending) == 0 {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		batch, last := l.pending, l.frame
		l.pending, spare = spare[:0], nil
		target := l.appended
		grabbed := l.pendingCommits.Swap(0)
		l.mu.Unlock()

		sealFrames(batch, last)
		err := l.store.Append(batch)
		if err == nil {
			err = l.store.Sync()
		}
		if cap(batch) <= pendingKick && cap(batch) <= 4*len(batch) {
			spare = batch
		}

		l.mu.Lock()
		// Concurrency estimate for the next coalescing window: committers
		// in this batch plus committers that arrived while it was syncing.
		// A lone writer blocked on this sync contributes exactly 1, so it
		// never waits; two alternating writers estimate 2 and start
		// sharing a sync instead of leapfrogging forever.
		l.lastBatchSize = grabbed + l.pendingCommits.Load()
		if err != nil {
			l.flushErr = fmt.Errorf("%w: %w", ErrLogFailed, err)
		} else {
			l.flushed = target
		}
		l.durable.Broadcast()
		if len(l.pending) > 0 || l.closed {
			l.kickLocked()
		}
		l.mu.Unlock()
	}
}

// Failed reports whether a failed batch has poisoned the log (see
// ErrLogFailed).
func (l *Log) Failed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushErr != nil
}

// Err returns why Append would refuse a record now: the error of the batch
// that poisoned the log, ErrClosed, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushErr == nil && l.closed {
		return ErrClosed
	}
	return l.flushErr
}

// WaitFlushed blocks until every record up to and including lsn is durable.
// It is the commit-side durability barrier: it enlists in the current batch
// and sleeps until the flusher's sync covers lsn. An already-durable prefix
// stays durable regardless of later batch failures, so the horizon is
// checked before the sticky error.
func (l *Log) WaitFlushed(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
// buffered; WaitFlushed makes it durable. The log is fail-stop: once a
// batch has failed, Append returns that batch's error, so no transaction
// begins, commits or logs a change behind it. A closed log refuses the
// record with ErrClosed.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushErr != nil {
		return 0, l.flushErr
	}
	if l.closed {
		return 0, ErrClosed
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	if n := len(l.pending); n == 0 || n-l.frame >= maxFrame {
		if n > 0 {
			binary.BigEndian.PutUint32(l.pending[l.frame:], uint32(n-l.frame-frameHeader))
		}
		l.frame = n
		l.pending = openFrame(l.pending, r.LSN)
	}
	l.pending = appendRecord(l.pending, r)
	l.appended = r.LSN
	if r.Type == RecCommit {
		l.pendingCommits.Add(1)
	}
	if len(l.pending) >= pendingKick {
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

// FlushedLSN returns the LSN of the last durable record.
//
//tendax:allow-testonly ROADMAP durable horizon: the flushed LSN it stamps on each event
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

// Close refuses further appends, lets the flusher drain what is pending,
// and closes the store — also when a failed batch poisoned the log, whose
// error it then returns alongside the store's.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.kickLocked()
	l.mu.Unlock()
	<-l.flusherDone
	l.mu.Lock()
	l.durable.Broadcast() // release any stragglers with ErrClosed
	flushErr := l.flushErr
	l.mu.Unlock()
	return errors.Join(flushErr, l.store.Close())
}

// Iterate replays every durable record in LSN order. A torn tail terminates
// iteration without error (the tail is treated as never written); a record
// that is intact but undecodable fails it with ErrFormat.
func (l *Log) Iterate(fn func(*Record) error) error {
	data, err := l.store.ReadAll()
	if err != nil {
		return err
	}
	var ferr error
	err = Walk(data, func(r *Record, _, _ int) bool {
		rec := *r // fn may keep it (Recover does)
		ferr = fn(&rec)
		return ferr == nil
	})
	switch {
	case ferr != nil:
		return ferr
	case errors.Is(err, ErrTorn):
		return nil
	}
	return err
}
