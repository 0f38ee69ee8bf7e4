package client

import (
	"errors"
	"sync"
	"unicode/utf8"

	"tendax/internal/protocol"
)

// Session is the pipelined typing surface of a document: it coalesces
// keystrokes into ID-anchored edit batches and correlates the durable
// acknowledgements asynchronously — so typing throughput is no longer
// bounded by one blocking round-trip (plus one fsync wait) per keystroke.
//
// Batches are ack-clocked (Nagle's rule over durable acknowledgements): a
// key goes out at once when no batch is in flight; otherwise it waits, and
// the keys typed meanwhile go out as one batch when the last in-flight
// batch is acknowledged, or as soon as they reach the batch limit. A key
// waits at most one durable round trip, and a batch holds what was typed
// during one.
//
// The first insert after Open or MoveTo anchors at an explicit character
// identity; every subsequent flush anchors "after this connection's
// previous insert", which the server resolves from its own state — the
// session never has to wait for a batch's acknowledgement (and the
// instance IDs it assigns) before sending the next one. Requests on one
// connection apply in send order, so the pipeline preserves intent.
//
// Type/Wait are safe for concurrent use, but a session models one
// cursor: interleaving typists should use one session each, on their own
// connections. The server tracks the "previous insert" continuation
// anchor per (connection, document), so run at most one session per
// document on a given Client — two same-document sessions sharing a
// connection would chain after each other's cursors.
//
// A session sends from its callers' goroutines (Type, Wait, MoveTo) or
// from its one flusher goroutine, and its one acknowledgement handler runs
// on the connection's read loop. The handler takes only mu, which is never held across a
// send: over a synchronous transport the read loop must stay free to
// drain the server's frames while a batch is being written.
type Session struct {
	d *Doc

	// send is held from cutting a batch through its Send, so batches go
	// out in the order they are cut; req and op are the batch message,
	// reused under it.
	send sync.Mutex
	req  protocol.Message
	op   [1]protocol.EditOp
	// after is the explicit anchor req points at (op's After).
	after uint64

	mu         sync.Mutex
	idle       sync.Cond // broadcast on every acknowledgement; Wait rechecks inflight
	anchor     uint64    // explicit anchor for the next flush (0 = front)
	useAnchor  bool      // anchor set and not yet consumed
	batchLimit int       // pending runes that go out even behind an in-flight batch
	inflight   int       // batches sent and not yet acknowledged, and a handoff
	handoff    bool      // an acknowledgement left its place in flight to the next batch
	closed     bool
	err        error // first failure, sticky

	// The text typed and not yet sent, npend runes of it. While one Type
	// call supplied all of it, it is that call's string, sent as it is;
	// a second call moves it into the buffer pend.
	one   string
	pend  []byte
	npend int

	ack     handler       // onAck, bound once
	kick    chan struct{} // wakes the flusher to send the batch of a handoff
	flushed chan struct{} // closed when the flusher has returned

	flushes int // batches sent
	typed   int // runes accepted by Type
}

var errSessionClosed = errors.New("client: session closed")

// Session opens a pipelined editing session on the document. The cursor
// starts at the end of the document (MoveTo repositions it). The session's
// flusher goroutine ends at Close or when the connection does.
func (d *Doc) Session() (*Session, error) {
	s := &Session{d: d, batchLimit: 128,
		kick: make(chan struct{}, 1), flushed: make(chan struct{})}
	s.idle.L = &s.mu
	s.ack = s.onAck
	s.req.Op, s.req.Doc = protocol.OpEdit, d.id
	go s.flusher()
	if err := s.MoveTo(d.Len()); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// SetBatchLimit sets how many pending keystrokes go out as a batch even
// while another batch is in flight. Zero keeps the current value.
func (s *Session) SetBatchLimit(runes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if runes > 0 {
		s.batchLimit = runes
	}
}

// MoveTo repositions the cursor at visible position pos, resolving the
// insertion anchor's identity against the server: pending text is flushed
// first, and the next insert chains after the character currently at
// pos-1 (or the front of the document for pos 0) — wherever concurrent
// edits move it by the time the insert commits. Once a batch has failed,
// MoveTo returns that first error, as Type does.
func (s *Session) MoveTo(pos int) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errSessionClosed
	}
	s.flush(true)
	if err := s.Err(); err != nil {
		return err
	}

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
	if s.err != nil || s.closed {
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = errSessionClosed
		}
		return err
	}
	switch {
	case s.npend == 0:
		s.one = text
	case s.one != "":
		s.pend = append(append(s.pend, s.one...), text...)
		s.one = ""
	default:
		s.pend = append(s.pend, text...)
	}
	n := utf8.RuneCountInString(text)
	s.npend += n
	s.typed += n
	due := s.dueLocked()
	s.mu.Unlock()
	if due {
		s.flush(false)
	}
	return nil
}

// dueLocked reports whether the pending runes go out now under the
// ack-clocked rule: nothing is in flight, the last acknowledgement handed
// its place to them, or they reached the batch limit. Caller holds s.mu.
func (s *Session) dueLocked() bool {
	return s.npend > 0 && (s.inflight == 0 || s.handoff || s.npend >= s.batchLimit)
}

// flush ships the pending runes as one edit batch — when they are due, or
// whenever there are any if force is set. A handoff that finds nothing to
// send gives its place in flight back.
func (s *Session) flush(force bool) {
	s.send.Lock()
	defer s.send.Unlock()
	s.mu.Lock()
	if s.npend == 0 || s.err != nil || !force && !s.dueLocked() {
		if s.handoff {
			s.handoff = false
			s.inflight--
			s.idle.Broadcast()
		}
		s.mu.Unlock()
		return
	}
	text := s.one
	if text == "" {
		text = string(s.pend)
	}
	s.op[0] = protocol.EditOp{Kind: protocol.EditInsert, Text: text}
	if s.useAnchor {
		s.after = s.anchor
		s.op[0].After = &s.after
		s.useAnchor = false
	} else {
		s.op[0].Prev = true
	}
	s.one, s.pend, s.npend = "", s.pend[:0], 0
	if s.handoff {
		s.handoff = false
	} else {
		s.inflight++
	}
	s.mu.Unlock()

	s.req.Ops = s.op[:]
	err := s.d.c.start(&s.req, s.ack)
	s.mu.Lock()
	if err != nil {
		s.failLocked(err)
		s.inflight--
	} else {
		s.flushes++
	}
	s.idle.Broadcast()
	s.mu.Unlock()
}

// onAck is the session's acknowledgement handler (see handler). It records
// a failure; and when it acknowledges the last batch in flight while text
// waits behind it, it hands its place in flight to that text and wakes the
// flusher to send it — it cannot send from the read loop. Until the batch
// is out, the pipeline counts as busy: Type leaves the sending to it, and
// Wait waits for it.
func (s *Session) onAck(resp *protocol.Message) bool {
	err := respErr(resp)
	s.mu.Lock()
	s.failLocked(err)
	if s.inflight--; s.inflight == 0 && s.npend > 0 && s.err == nil && !s.closed {
		s.inflight, s.handoff = 1, true
		select {
		case s.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	s.idle.Broadcast()
	s.mu.Unlock()
	return false
}

// failLocked makes err, when it is the first, the session's sticky error.
// Caller holds s.mu.
func (s *Session) failLocked(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// flusher sends the batches of handoffs until Close retires the session
// or the connection ends; then a last flush fails, giving back the place
// of a handoff still pending.
func (s *Session) flusher() {
	defer close(s.flushed)
	for {
		select {
		case _, ok := <-s.kick:
			if !ok {
				return
			}
		case <-s.d.c.done:
			s.flush(false)
			return
		}
		s.flush(false)
	}
}

// Wait flushes pending text and blocks until every sent batch has been
// durably acknowledged, returning the first error any batch hit. After a
// nil Wait, everything typed so far is on the server's stable storage.
func (s *Session) Wait() error {
	s.flush(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	return s.err
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

// Close retires the session: it refuses further typing, flushes what was
// typed before, waits for all acknowledgements, and stops the flusher.
func (s *Session) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true // from here on, no acknowledgement wakes the flusher
	s.mu.Unlock()
	err := s.Wait()
	if !already {
		close(s.kick)
	}
	<-s.flushed
	return err
}
