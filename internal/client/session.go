package client

import (
	"errors"
	"sync"
	"time"

	"tendax/internal/protocol"
)

// Session is the protocol-v3 pipelined typing surface of a document: it
// coalesces keystrokes into ID-anchored edit batches, flushes them when a
// batch fills or the flush interval elapses, and correlates the durable
// acknowledgements asynchronously — so typing throughput is no longer
// bounded by one blocking round-trip (plus one fsync wait) per keystroke.
//
// The first insert after Open or MoveTo anchors at an explicit character
// identity; every subsequent flush anchors "after this connection's
// previous insert", which the server resolves from its own state — the
// session never has to wait for a batch's acknowledgement (and the
// instance IDs it assigns) before sending the next one. Requests on one
// connection apply in send order, so the pipeline preserves intent.
//
// Type/Flush/Wait are safe for concurrent use, but a session models one
// cursor: interleaving typists should use one session each, on their own
// connections. The server tracks the "previous insert" continuation
// anchor per (connection, document), so run at most one session per
// document on a given Client — two same-document sessions sharing a
// connection would chain after each other's cursors.
type Session struct {
	d *Doc

	mu        sync.Mutex
	pend      []rune
	anchor    uint64 // explicit anchor for the next flush (0 = front)
	useAnchor bool   // anchor set and not yet consumed
	flushLen  int
	interval  time.Duration
	timer     *time.Timer
	closed    bool
	err       error // first failure, sticky

	wg      sync.WaitGroup // outstanding (sent, unacknowledged) batches
	flushes int            // batches sent
	typed   int            // runes accepted by Type
}

// ErrNeedV3 reports a session request against a server that only speaks
// protocol v1.
var ErrNeedV3 = errors.New("client: server does not speak protocol v3")

// Session opens a pipelined editing session on the document, negotiating
// protocol v3 first if the connection has not already. The cursor starts
// at the end of the document (MoveTo repositions it).
func (d *Doc) Session() (*Session, error) {
	ver, err := d.c.hello()
	if err != nil {
		return nil, err
	}
	if ver < protocol.Version3 {
		return nil, ErrNeedV3
	}
	s := &Session{
		d:        d,
		flushLen: 128,
		interval: 3 * time.Millisecond,
	}
	if err := s.MoveTo(d.Len()); err != nil {
		return nil, err
	}
	return s, nil
}

// SetFlushLimits tunes the coalescing: a batch is flushed when it holds
// runes keystrokes or when interval has elapsed since the first pending
// keystroke, whichever comes first. Zero keeps the current value.
func (s *Session) SetFlushLimits(runes int, interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if runes > 0 {
		s.flushLen = runes
	}
	if interval > 0 {
		s.interval = interval
	}
}

// MoveTo repositions the cursor at visible position pos, resolving the
// insertion anchor's identity against the server: pending text is flushed
// first, and the next insert chains after the character currently at
// pos-1 (or the front of the document for pos 0) — wherever concurrent
// edits move it by the time the insert commits.
func (s *Session) MoveTo(pos int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("client: session closed")
	}
	s.flushLocked()
	s.mu.Unlock()

	var anchor uint64
	if pos > 0 {
		ids, err := s.d.Anchors(pos-1, 1)
		if err != nil {
			return err
		}
		anchor = ids[0]
	}
	s.mu.Lock()
	s.anchor, s.useAnchor = anchor, true
	s.mu.Unlock()
	return nil
}

// Type appends text at the session cursor. The text is coalesced with
// adjacent keystrokes and flushed as one ID-anchored batch op; Type never
// waits for the server. The first error of any earlier flush is returned
// (the session is then dead for further typing).
func (s *Session) Type(text string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("client: session closed")
	}
	s.typed += len([]rune(text))
	s.pend = append(s.pend, []rune(text)...)
	if len(s.pend) >= s.flushLen {
		s.flushLocked()
		return nil
	}
	if s.timer == nil {
		s.timer = time.AfterFunc(s.interval, s.Flush)
	}
	return nil
}

// Flush sends the pending text as one batch without waiting for its
// acknowledgement.
func (s *Session) Flush() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

// flushLocked ships the pending runes as one edit batch. Caller holds
// s.mu.
func (s *Session) flushLocked() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.pend) == 0 || s.err != nil {
		return
	}
	op := protocol.EditOp{Kind: protocol.EditInsert, Text: string(s.pend)}
	if s.useAnchor {
		a := s.anchor
		op.After = &a
		s.useAnchor = false
	} else {
		op.Prev = true
	}
	s.pend = s.pend[:0]

	ch, err := s.d.c.start(&protocol.Message{
		Op: protocol.OpEdit, Doc: s.d.id, Ops: []protocol.EditOp{op},
	})
	if err != nil {
		s.err = err
		return
	}
	s.flushes++
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if _, err := await(ch); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	}()
}

// Wait flushes pending text and blocks until every sent batch has been
// durably acknowledged, returning the first error any batch hit. After a
// nil Wait, everything typed so far is on the server's stable storage.
func (s *Session) Wait() error {
	s.Flush()
	s.wg.Wait()
	return s.Err()
}

// Err returns the sticky first error of the session's pipeline.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flushes returns how many batches the session has sent (observability:
// typed runes over flushes is the achieved coalescing factor).
func (s *Session) Flushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// Typed returns how many runes the session has accepted.
func (s *Session) Typed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.typed
}

// Close flushes, waits for all acknowledgements and retires the session.
func (s *Session) Close() error {
	err := s.Wait()
	s.mu.Lock()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.mu.Unlock()
	return err
}
