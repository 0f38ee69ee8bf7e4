package client

import (
	"errors"
	"sync"

	"tendax/internal/protocol"
)

// Session is the protocol-v3 pipelined typing surface of a document: it
// coalesces keystrokes into ID-anchored edit batches and correlates the
// durable acknowledgements asynchronously — so typing throughput is no
// longer bounded by one blocking round-trip (plus one fsync wait) per
// keystroke.
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
type Session struct {
	d *Doc

	mu         sync.Mutex
	idle       sync.Cond // broadcast on every acknowledgement; Wait rechecks inflight
	pend       []rune
	anchor     uint64 // explicit anchor for the next flush (0 = front)
	useAnchor  bool   // anchor set and not yet consumed
	batchLimit int    // pending runes that go out even behind an in-flight batch
	inflight   int    // batches sent and not yet acknowledged
	closed     bool
	err        error // first failure, sticky

	flushes int // batches sent
	typed   int // runes accepted by Type
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
	s := &Session{d: d, batchLimit: 128}
	s.idle.L = &s.mu
	if err := s.MoveTo(d.Len()); err != nil {
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
	if s.closed {
		s.mu.Unlock()
		return errors.New("client: session closed")
	}
	s.flushLocked()
	err := s.err
	s.mu.Unlock()
	if err != nil {
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
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("client: session closed")
	}
	s.typed += len([]rune(text))
	s.pend = append(s.pend, []rune(text)...)
	if s.inflight == 0 || len(s.pend) >= s.batchLimit {
		s.flushLocked()
	}
	return nil
}

// flushLocked ships the pending runes as one edit batch; its
// acknowledgement ships whatever was typed behind it once nothing else is
// in flight. Caller holds s.mu.
func (s *Session) flushLocked() {
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
	s.inflight++
	go func() {
		_, err := await(ch)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil && s.err == nil {
			s.err = err
		}
		if s.inflight--; s.inflight == 0 {
			s.flushLocked()
		}
		s.idle.Broadcast()
	}()
}

// Wait flushes pending text and blocks until every sent batch has been
// durably acknowledged, returning the first error any batch hit. After a
// nil Wait, everything typed so far is on the server's stable storage.
func (s *Session) Wait() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
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

// Close flushes, waits for all acknowledgements and retires the session.
func (s *Session) Close() error {
	err := s.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}
