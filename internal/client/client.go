// Package client is the TeNDaX editor-side library: it speaks the wire
// protocol, issues editing operations as requests, and maintains a live
// local replica of each subscribed document by applying the server's
// committed-operation pushes in sequence order — the "everything appears as
// soon as it is stored persistently" behaviour of the paper.
package client

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"tendax/internal/protocol"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("client: connection closed")

// RemoteError is an error the server answered with (as opposed to a
// transport failure): the connection is alive and the server processed
// the request.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// ThrottledError is the server's typed rate-limit rejection: the request
// was not processed, the connection is alive, and retrying after
// RetryAfter is expected to succeed. Detect it with errors.As.
type ThrottledError struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("%s (retry after %v)", e.Msg, e.RetryAfter)
}

// Client is one editor connection to a TeNDaX server.
type Client struct {
	codec  *protocol.Codec
	nextID atomic.Int64

	mu      sync.Mutex
	pending map[int64]handler
	docs    map[uint64]*Doc
	closed  bool
	done    chan struct{} // closed when the read loop has ended
}

// A handler receives the response to one request on the connection's read
// loop, or nil once the connection is gone. The response is the read
// loop's message, which the next frame is decoded into: a handler that
// keeps it, or its Event or lists of structs, returns true, and the loop
// decodes the next frame into a new message. Strings and ID lists are the
// frame's own and may be kept either way. A handler runs on the read loop,
// so it must neither send a request nor wait for a lock held across one:
// the response it needs could only come through the loop it blocks.
type handler func(resp *protocol.Message) (kept bool)

// Option configures a Dial. The handshake's steps (hello, then login) run
// in a fixed order after the connection is established, regardless of
// the order the options are passed in.
type Option func(*dialConfig)

type dialConfig struct {
	user     string
	password string
	login    bool
}

// WithMaxVersion does nothing: every connection says hello for protocol
// v3, the only version there is. It is kept for callers written when a
// connection could stay on version 1.
func WithMaxVersion(int) Option { return func(*dialConfig) {} }

// WithUser logs in as user during Dial (empty password unless WithPassword
// is also given). Dial fails — and closes the connection — if the login is
// rejected.
func WithUser(user string) Option {
	return func(cfg *dialConfig) { cfg.user, cfg.login = user, true }
}

// WithPassword sets the password for WithUser's login.
func WithPassword(password string) Option {
	return func(cfg *dialConfig) { cfg.password = password }
}

// Dial connects to a server and runs the handshake: a hello for protocol
// v3, then, if WithUser is given, a login.
func Dial(addr string, opts ...Option) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc, opts...)
}

// New runs Dial's handshake over rw, an established connection to a
// server (in-process tests use one end of a net.Pipe), and returns the
// client. A failed handshake closes rw.
func New(rw io.ReadWriteCloser, opts ...Option) (*Client, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := newClient(rw)
	_, err := c.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax})
	if err != nil {
		c.Close()
		return nil, err
	}
	if cfg.login {
		if err := c.Login(cfg.user, cfg.password); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// newClient starts a client's read loop over an established connection,
// before any handshake.
func newClient(rw io.ReadWriteCloser) *Client {
	c := &Client{
		codec:   protocol.NewCodec(rw),
		pending: make(map[int64]handler),
		docs:    make(map[uint64]*Doc),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.codec.Close()
}

// readLoop decodes every frame into one message it owns: a response goes
// to the handler its request registered, a push is folded into its
// document's replica.
func (c *Client) readLoop() {
	m := new(protocol.Message)
	for {
		if err := c.codec.RecvInto(m); err != nil {
			c.mu.Lock()
			c.closed = true
			pending := c.pending
			c.pending = nil
			docs := make([]*Doc, 0, len(c.docs))
			for _, d := range c.docs {
				docs = append(docs, d)
			}
			c.mu.Unlock()
			for _, h := range pending {
				h(nil)
			}
			// A replica's waiters see done closed once they wake.
			close(c.done)
			for _, d := range docs {
				d.mu.Lock()
				d.wake.Broadcast()
				d.mu.Unlock()
			}
			return
		}
		switch m.Type {
		case protocol.TypeResponse:
			c.mu.Lock()
			h := c.pending[m.ID]
			delete(c.pending, m.ID)
			c.mu.Unlock()
			if h != nil && h(m) {
				m = new(protocol.Message)
			}
		case protocol.TypePush:
			if m.Event == nil {
				continue
			}
			c.mu.Lock()
			d := c.docs[m.Event.Doc]
			c.mu.Unlock()
			if d != nil {
				d.apply(m.Event)
			}
		}
	}
}

// start sends a request without waiting for its response: unless start
// returns an error, the read loop calls h exactly once, with the response
// or with nil once the connection is gone. The pipelined session flushes
// batches through this — the server processes a connection's requests
// strictly in send order, so edits stay ordered while their
// acknowledgements are collected asynchronously.
func (c *Client) start(req *protocol.Message, h handler) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	id := c.nextID.Add(1)
	req.Type = protocol.TypeRequest
	req.ID = id
	c.pending[id] = h
	c.mu.Unlock()

	if err := c.codec.Send(req); err != nil {
		c.mu.Lock()
		_, waiting := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if waiting { // else the read loop has already called h
			return err
		}
	}
	return nil
}

// respErr is the error a response carries, nil for a success, ErrClosed
// for the nil a handler gets once the connection is gone.
func respErr(resp *protocol.Message) error {
	switch {
	case resp == nil:
		return ErrClosed
	case resp.Err == "":
		return nil
	case resp.Code == protocol.ErrThrottled:
		return &ThrottledError{Msg: resp.Err,
			RetryAfter: time.Duration(resp.RetryMS) * time.Millisecond}
	default:
		return &RemoteError{Msg: resp.Err}
	}
}

// call sends a request and waits for its response, which it keeps.
func (c *Client) call(req *protocol.Message) (*protocol.Message, error) {
	ch := make(chan *protocol.Message, 1)
	if err := c.start(req, func(resp *protocol.Message) bool {
		ch <- resp
		return true
	}); err != nil {
		return nil, err
	}
	resp := <-ch
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Login authenticates the connection.
func (c *Client) Login(user, password string) error {
	_, err := c.call(&protocol.Message{Op: protocol.OpLogin, User: user, Password: password})
	return err
}

// CreateDocument creates a document and returns its ID.
func (c *Client) CreateDocument(name string) (uint64, error) {
	resp, err := c.call(&protocol.Message{Op: protocol.OpCreateDoc, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Doc, nil
}

// ListDocuments returns server-side document metadata.
func (c *Client) ListDocuments() ([]protocol.DocInfo, error) {
	resp, err := c.call(&protocol.Message{Op: protocol.OpListDocs})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// SearchQuery is the client-side shape of a full-text search request,
// answered from the server's incremental index.
type SearchQuery struct {
	Terms      []string // AND semantics; tokenized server-side conventions apply
	InHeadings bool     // restrict match to heading spans
	Rank       string   // "relevance" (default), "newest", "most-cited", "most-read"
	Limit      int      // 0 = no limit
}

// Search runs a full-text query against the server's incremental index.
// Results are ACL-filtered server-side: documents the user cannot read are
// absent, and snippets are re-derived through the user's character-level
// read mask. Requires a server with indexers running.
func (c *Client) Search(q SearchQuery) ([]protocol.SearchHit, error) {
	resp, err := c.call(&protocol.Message{Op: protocol.OpQuery, Query: &protocol.QueryReq{
		Kind:       protocol.QuerySearch,
		Terms:      q.Terms,
		InHeadings: q.InHeadings,
		Rank:       q.Rank,
		Limit:      q.Limit,
	}})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Provenance reports where the characters in [pos, pos+n) of a document
// came from, as maximal same-source runs — the lineage half of the query
// surface. Runs the user is denied from reading are clipped server-side.
func (c *Client) Provenance(docID uint64, pos, n int) ([]protocol.SourceRef, error) {
	resp, err := c.call(&protocol.Message{Op: protocol.OpQuery, Query: &protocol.QueryReq{
		Kind: protocol.QuerySources,
		Doc:  docID,
		Pos:  pos,
		N:    n,
	}})
	if err != nil {
		return nil, err
	}
	return resp.Sources, nil
}

// Doc is a live local replica of one document, built from the one stream
// of pushes its subscription gets: a base, the text at a sequence number,
// then every event after it in sequence order, and a fresh base wherever
// the server answers a gap with one.
type Doc struct {
	c  *Client
	id uint64

	mu    sync.Mutex
	runes []rune
	// seq is the last event folded into runes: the dedup and sequence test
	// of the next one. told trails it: the last event the watcher has also
	// been told about — what Seq reports, so that "the replica
	// is at n" implies "the watcher's callback for n has returned". wake
	// (on mu) is broadcast whenever told advances, when err is set and when
	// the connection's read loop ends.
	seq, told uint64
	wake      sync.Cond
	// based is set once the first base has landed, lagged once a later
	// one has.
	based, lagged bool
	// err is why the replica cannot follow its document: a push that
	// skipped a sequence number (until a base lands), or the end of its
	// feed (for good).
	err error
	// events is the event log Events reads, a ring of the newest
	// eventRetention events folded; oldest is its oldest slot once full.
	events  []protocol.Event
	oldest  int
	watcher func(protocol.Event)
}

// Open subscribes to a document and returns its replica once the
// subscription's first push, its base, has landed.
func (c *Client) Open(docID uint64) (*Doc, error) {
	c.mu.Lock()
	d, open := c.docs[docID]
	if !open {
		// Register before subscribing, so the base finds the replica.
		d = &Doc{c: c, id: docID}
		d.wake.L = &d.mu
		c.docs[docID] = d
	}
	c.mu.Unlock()
	if !open {
		if _, err := c.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: docID}); err != nil {
			d.end(err) // a concurrent Open of the same document waits on d
			return nil, err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.waitLocked(func() bool { return d.based }); err != nil {
		return nil, err
	}
	return d, nil
}

// ID returns the document ID.
func (d *Doc) ID() uint64 { return d.id }

// Text returns the replica's current text. It may already hold an event
// that Seq does not report yet (see Seq).
func (d *Doc) Text() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return string(d.runes)
}

// Len returns the replica's length in characters; like Text, it may be
// one event ahead of Seq.
func (d *Doc) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.runes)
}

// Seq returns the sequence number of the last event the replica has
// applied and the watcher, if one is installed, has been told about: it
// advances to n only after the Watch callback for n has returned (right
// away when there is no watcher). So whoever reads Seq() >= n may rely on
// everything the watcher does with event n having been done. Text and Len
// are folded before the callback runs and may be ahead of Seq by the event
// being delivered.
func (d *Doc) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.told
}

// Lagged reports whether the replica ever fell further behind than the
// server's op ring reaches, so that a fresh base replaced the events it
// missed.
func (d *Doc) Lagged() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lagged
}

// Watch installs a callback invoked on every applied event (UI updates,
// test synchronisation) and on every base that lands after the one Open
// waited for, an event of kind "resync" whose Name is the cause,
// protocol.LaggedRingMiss, and whose N counts the events the base stands
// in for. The replica folds no event of those N, so the callback is not
// told them one by one. A base is told with its text in Text, packed on
// the wire or not. One watcher at a time. The callback runs without
// the replica's lock (it may call Events, Text, …) and sees the event
// already folded into Text; Seq reports the event's sequence number only
// once the callback has returned.
func (d *Doc) Watch(fn func(protocol.Event)) {
	d.mu.Lock()
	d.watcher = fn
	d.mu.Unlock()
}

// eventRetention is how many events a replica's event log keeps: the bus's
// awareness.DefaultRetention, the most a subscriber may fall behind by
// before a base replaces what it missed.
const eventRetention = 1024

// Events returns a copy of the newest events applied, at most 1024, in
// sequence order. A base adds none.
func (d *Doc) Events() []protocol.Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.Event, 0, len(d.events))
	out = append(out, d.events[d.oldest:]...)
	return append(out, d.events[:d.oldest]...)
}

// apply folds one push into the replica. A base replaces the text wherever
// it arrives; any other event must continue the replica's sequence. The
// server pushes each subscription a contiguous stream and answers its own
// gaps with a base, so the replica never asks to catch up: a push that
// skips a sequence number stops it — it folds nothing more, and reads
// fail, until a base lands. An EvLagged push ends the feed for good. apply
// runs on the connection's read loop, so it never sends a request.
func (d *Doc) apply(ev *protocol.Event) {
	switch ev.Kind {
	case protocol.EvLagged:
		d.end(&RemoteError{Msg: ev.Name})
		return
	case protocol.EvPresence:
		// Synthetic full-roster snapshot, out of band with the document
		// event stream: its sequence number is whatever the bus was at
		// when the server sent it. Tell it and leave d.seq alone.
		d.mu.Lock()
		d.unlockAndTell(*ev, 0)
		return
	}
	var base []rune
	if ev.Kind == protocol.EvResync {
		var err error
		if base, err = baseRunes(ev); err != nil {
			d.end(fmt.Errorf("client: base %d of document %d: %w", ev.Seq, d.id, err))
			return
		}
	}
	d.mu.Lock()
	switch {
	case ev.Kind == protocol.EvResync:
		d.runes = base
		if len(ev.Packed) > 0 && d.watcher != nil {
			ev.Text, ev.Packed = string(base), nil
		}
		d.seq, d.err = ev.Seq, nil
		d.lagged = d.lagged || d.based
		d.based = true
	case ev.Seq <= d.seq: // a duplicate
		d.mu.Unlock()
		return
	case !d.based || d.err != nil || ev.Seq != d.seq+1:
		if d.err == nil {
			d.err = fmt.Errorf("client: push %d of document %d does not follow %d", ev.Seq, d.id, d.seq)
			d.wake.Broadcast()
		}
		d.mu.Unlock()
		return
	default:
		d.seq = ev.Seq
		d.foldLocked(ev)
	}
	d.unlockAndTell(*ev, d.seq)
}

// inflater is the state baseRunes inflates with. A flate reader holds a
// 32 KB window and its tables, so it is taken from a sync.Pool, which
// lets the collector free what it holds: no replica or connection keeps
// one.
type inflater struct {
	src bytes.Reader
	zr  io.Reader
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.zr = flate.NewReader(&in.src)
	return in
}}

// baseRunes is a base's text as runes, from Text or inflated from Packed.
// It inflates outside the replica's lock, into a buffer that grows as
// bytes come out of the stream and no further than MaxBinaryFrame, the
// most a Text could have carried, and decodes that into runes of the
// text's exact length. A stream that is corrupt, ends early, inflates
// past the cap or is not UTF-8 is an error.
func baseRunes(ev *protocol.Event) ([]rune, error) {
	if len(ev.Packed) == 0 {
		return []rune(ev.Text), nil
	}
	const limit = protocol.MaxBinaryFrame
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(ev.Packed)
	defer in.src.Reset(nil)
	if err := in.zr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	b := make([]byte, 0, min(4*len(ev.Packed), limit+1))
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(max(len(b), 512), limit+1-len(b)))
		}
		n, err := in.zr.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		if len(b) > limit {
			return nil, fmt.Errorf("packed text inflates past %d bytes", limit)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("inflate: %w", err)
		}
	}
	runes := make([]rune, 0, utf8.RuneCount(b))
	for len(b) > 0 {
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 {
			return nil, errors.New("packed text is not UTF-8")
		}
		runes = append(runes, r)
		b = b[n:]
	}
	return runes, nil
}

// end cuts the replica off its document: it leaves the client's replicas,
// so that a later Open subscribes afresh, and its waiters and reads get
// err from now on.
func (d *Doc) end(err error) {
	c := d.c
	c.mu.Lock()
	if c.docs[d.id] == d {
		delete(c.docs, d.id)
	}
	c.mu.Unlock()
	d.mu.Lock()
	d.err = err
	d.wake.Broadcast()
	d.mu.Unlock()
}

// waitLocked waits on d.wake (caller holds d.mu) until ok reports true and
// returns nil, or until the replica cannot follow its document and returns
// why: ErrClosed once the connection is gone, or d.err.
func (d *Doc) waitLocked(ok func() bool) error {
	for !ok() {
		select {
		case <-d.c.done:
			return ErrClosed
		default:
		}
		if d.err != nil {
			return d.err
		}
		d.wake.Wait()
	}
	return nil
}

// unlockAndTell releases d.mu (which the caller holds), hands ev to the
// watcher, and only then lets Seq report seq — the sequence number the
// caller folded up to under the lock — and wakes the replica's waiters.
// The callback runs without the lock because watchers call back into the
// replica; Seq never moves backwards.
func (d *Doc) unlockAndTell(ev protocol.Event, seq uint64) {
	w := d.watcher
	if w != nil {
		d.mu.Unlock()
		w(ev)
		d.mu.Lock()
	}
	if seq > d.told {
		d.told = seq
		d.wake.Broadcast()
	}
	d.mu.Unlock()
}

// foldLocked folds one event's text effect into the replica (caller holds
// d.mu and has already advanced d.seq). A "batch" event — one committed
// edit batch — and an undo or redo replay their items in order; each
// item's position is resolved against the state after the items before
// it, so the fold reproduces the committed text exactly.
func (d *Doc) foldLocked(ev *protocol.Event) {
	switch ev.Kind {
	case "insert", "paste":
		d.spliceLocked(ev.Pos, 0, ev.Text)
	case "delete":
		d.spliceLocked(ev.Pos, ev.N, "")
	case "batch", "undo", "redo":
		for _, it := range ev.Batch {
			switch it.Kind {
			case "insert", "paste":
				d.spliceLocked(it.Pos, 0, it.Text)
			case "delete":
				d.spliceLocked(it.Pos, it.N, "")
			}
		}
	}
	d.logEventLocked(ev)
}

// logEventLocked adds ev to the event log (caller holds d.mu). The log
// grows as a slice does until it holds eventRetention events, and only
// then evicts: ev overwrites the oldest slot, which frees that event's
// Batch.
func (d *Doc) logEventLocked(ev *protocol.Event) {
	if len(d.events) < eventRetention {
		d.events = append(d.events, *ev)
		return
	}
	d.events[d.oldest] = *ev
	d.oldest = (d.oldest + 1) % eventRetention
}

// spliceLocked replaces del runes at pos with ins, in place: only the
// tail moves, and the slice grows only when it is full.
func (d *Doc) spliceLocked(pos, del int, ins string) {
	if pos < 0 || pos+del > len(d.runes) {
		return
	}
	d.runes = slices.Replace(d.runes, pos, pos+del, []rune(ins)...)
}

// EditBatch applies an edit batch — ops anchored by character identity,
// committed as ONE server-side transaction — and waits for the durable
// acknowledgement.
func (d *Doc) EditBatch(ops []protocol.EditOp) ([]protocol.EditResult, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpEdit, Doc: d.id, Ops: ops})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Anchors returns the character-instance IDs of the visible range
// [pos, pos+n), resolved against one consistent server snapshot. Edits
// anchored by these IDs land at the anchors' identities no matter how
// many concurrent edits have moved the positions since.
func (d *Doc) Anchors(pos, n int) ([]uint64, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpAnchors, Doc: d.id, Pos: pos, N: n})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// edit applies one positional op, the paper's editing API, as an edit
// batch of one and waits for the durable acknowledgement.
func (d *Doc) edit(op protocol.EditOp) error {
	_, err := d.EditBatch([]protocol.EditOp{op})
	return err
}

// Insert types text at pos through the server.
func (d *Doc) Insert(pos int, text string) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditInsert, Pos: pos, Text: text})
}

// Append types text at the end of the document (server-resolved position).
func (d *Doc) Append(text string) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditInsert, Pos: -1, Text: text})
}

// Delete removes n characters at pos through the server.
func (d *Doc) Delete(pos, n int) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditDelete, Pos: pos, N: n})
}

// Copy captures a clipboard (with provenance) from the server.
//
//tendax:allow-testonly paper capability with no CLI caller yet: copy with provenance; TestEditorHeadless drives it
func (d *Doc) Copy(pos, n int) (*protocol.Clip, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpCopy, Doc: d.id, Pos: pos, N: n})
	if err != nil {
		return nil, err
	}
	return resp.Clip, nil
}

// Paste inserts a clipboard at pos, naming the clipboard's source as the
// text's provenance.
//
//tendax:allow-testonly paper capability with no CLI caller yet: paste with provenance; TestEditorHeadless drives it
func (d *Doc) Paste(pos int, clip *protocol.Clip) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditInsert, Pos: pos, Text: clip.Text,
		SrcDoc: clip.SrcDoc, SrcChars: clip.SrcChars})
}

// Undo reverts this user's (scope local) or the document's (scope global)
// latest operation.
func (d *Doc) Undo(scope string) error {
	_, err := d.c.call(&protocol.Message{Op: protocol.OpUndo, Doc: d.id, Scope: scope})
	return err
}

// Redo re-applies the most recently undone operation in scope.
func (d *Doc) Redo(scope string) error {
	_, err := d.c.call(&protocol.Message{Op: protocol.OpRedo, Doc: d.id, Scope: scope})
	return err
}

// Layout applies a layout span.
func (d *Doc) Layout(pos, n int, kind, value string) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditLayout, Pos: pos, N: n, Span: kind, Value: value})
}

// CreateVersion snapshots the document.
func (d *Doc) CreateVersion(name string) error {
	_, err := d.c.call(&protocol.Message{Op: protocol.OpVersion, Doc: d.id, Name: name})
	return err
}

// Versions lists the document's versions.
func (d *Doc) Versions() ([]protocol.Version, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpVersions, Doc: d.id})
	if err != nil {
		return nil, err
	}
	return resp.Versions, nil
}

// Read records a read event on the server and returns the text the read
// saw, served by the replica: the server answers with the sequence number
// of the state it read, and Read waits until Seq reports it. So a read
// holds every edit acknowledged before it (read-your-writes) and costs a
// few bytes on the wire however long the document. A user whom range
// rules deny part of the text reads it as the replica holds it, each
// denied character masked with █ (server.MaskRune) rather than left out.
// Read fails with ErrClosed once the connection is gone, with the error
// that ended the replica's feed, and, until a base lands, with an error
// naming the sequence number a push skipped to. Do not call
// it from a Watch callback: the replica does not advance until the
// callback returns.
func (d *Doc) Read() (string, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpRead, Doc: d.id})
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.waitLocked(func() bool { return d.told >= resp.Seq }); err != nil {
		return "", err
	}
	return string(d.runes), nil
}

// MoveCursor publishes the user's cursor position (awareness).
//
//tendax:allow-testonly paper capability with no CLI caller yet: awareness cursors; TestEditorHeadless drives it
func (d *Doc) MoveCursor(pos int) error {
	_, err := d.c.call(&protocol.Message{Op: protocol.OpCursor, Doc: d.id, Pos: pos})
	return err
}

// Presence lists users currently in the document.
func (d *Doc) Presence() ([]protocol.Presence, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpPresence, Doc: d.id})
	if err != nil {
		return nil, err
	}
	return resp.Present, nil
}

// History returns the document's editing history.
func (d *Doc) History() ([]protocol.HistoryOp, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpHistory, Doc: d.id})
	if err != nil {
		return nil, err
	}
	return resp.History, nil
}
