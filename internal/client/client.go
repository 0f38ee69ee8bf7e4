// Package client is the TeNDaX editor-side library: it speaks the wire
// protocol, issues editing operations as requests, and maintains a live
// local replica of each subscribed document by applying the server's
// committed-operation pushes in sequence order — the "everything appears as
// soon as it is stored persistently" behaviour of the paper.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	user   string
	shards int // the server's engine-shard count, from the hello
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
	resp, err := c.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.shards = resp.Shards
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

// User returns the logged-in user name.
func (c *Client) User() string { return c.user }

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

// ShardCount returns the server's engine-shard count as reported in the
// hello response. Documents map onto shards by ID — shard of doc =
// (doc-1) mod ShardCount — which the multi-node phase will use to route
// connections; today it is purely informational.
func (c *Client) ShardCount() int { return c.shards }

// Login authenticates the connection.
func (c *Client) Login(user, password string) error {
	_, err := c.call(&protocol.Message{Op: protocol.OpLogin, User: user, Password: password})
	if err != nil {
		return err
	}
	c.user = user
	return nil
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

// Doc is a live local replica of one document.
type Doc struct {
	c  *Client
	id uint64

	mu    sync.Mutex
	runes []rune
	// seq is the last event folded into runes: the dedup and gap test of
	// the next one. told trails it: the last event the watcher has also
	// been told about — what Seq and WaitSeq report, so that "the replica
	// is at n" implies "the watcher's callback for n has returned". wake
	// (on mu) is broadcast whenever told advances, when a resync gives up
	// and when the connection's read loop ends.
	seq, told uint64
	wake      sync.Cond
	snap      uint64 // MVCC snapshot version of the last full-text read
	lagged    bool
	// resyncing is set while the replica waits for a base (its open read
	// or a resync); pending keeps the pushes that arrive meanwhile, to be
	// folded on top of the base once it lands. resyncErr is the error the
	// last resync gave up on, until a base lands or another resync starts:
	// while it is set, the replica cannot catch up on its own.
	resyncing bool
	pending   []protocol.Event
	resyncErr error
	// events is the event log Events reads, a ring of the newest
	// eventRetention events folded; oldest is its oldest slot once full.
	events  []protocol.Event
	oldest  int
	watcher func(protocol.Event)

	// peers is the replica's presence view: user → cursor position,
	// folded from the join/leave/cursor event stream since this replica
	// subscribed, and replaced wholesale by a server presence snapshot
	// (pushed after a shed gap is healed, when the incremental updates
	// were coalesced away).
	peers map[string]int
}

// Open subscribes to a document and returns its replica, primed with the
// current text.
func (c *Client) Open(docID uint64) (*Doc, error) {
	c.mu.Lock()
	if d, ok := c.docs[docID]; ok {
		c.mu.Unlock()
		return d, nil
	}
	c.mu.Unlock()

	// Register before subscribing so no push is dropped: pushes arriving
	// before the open snapshot wait in pending until it lands.
	d := &Doc{c: c, id: docID, resyncing: true}
	d.wake.L = &d.mu
	c.mu.Lock()
	c.docs[docID] = d
	c.mu.Unlock()

	_, err := c.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: docID})
	var resp *protocol.Message
	if err == nil {
		resp, err = c.call(&protocol.Message{Op: protocol.OpOpenDoc, Doc: docID})
	}
	if err != nil {
		c.mu.Lock()
		delete(c.docs, docID)
		c.mu.Unlock()
		// A concurrent Open of the same document returned d: its reads
		// must not wait for a base that is not coming.
		d.mu.Lock()
		d.resyncErr = err
		d.wake.Broadcast()
		d.mu.Unlock()
		return nil, err
	}
	d.mu.Lock()
	d.landLocked(resp.Text, resp.Seq, resp.Snap)
	d.told = d.seq
	d.wake.Broadcast()
	d.mu.Unlock()
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

// SnapVersion returns the server-side MVCC snapshot version of the last
// full-text read (open or resync): the number of committed text mutations
// the snapshot had absorbed since the serving process loaded the document.
// Zero until the first full read lands; only comparable between reads
// served by the same server process (a restart resets the counter).
func (d *Doc) SnapVersion() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snap
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

// Lagged reports whether the server ever dropped this replica's
// subscription for falling behind (it has since resubscribed and resynced).
func (d *Doc) Lagged() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lagged
}

// Watch installs a callback invoked on every applied event (UI updates,
// test synchronisation), and with a synthetic "resync" event after the
// replica caught up by other means; that event's Name is the cause: "gap"
// (a push skipped a sequence number), "lagged" (the server said the
// replica fell behind; N copies the lagged push's count of events the op
// ring evicted unread) or "explicit" (a caller's Resync). One watcher at a
// time. The callback runs without the replica's lock (it may call Events,
// Text, …) and sees the event already folded into Text; Seq and WaitSeq
// report the event's sequence number only once the callback has returned.
func (d *Doc) Watch(fn func(protocol.Event)) {
	d.mu.Lock()
	d.watcher = fn
	d.mu.Unlock()
}

// eventRetention is how many events a replica's event log keeps: the bus's
// awareness.DefaultRetention, the most events one delta resync can fold.
const eventRetention = 1024

// Events returns a copy of the newest events applied, at most 1024, in
// sequence order. Inside a "resync" watcher callback they include every
// event the resync folded, up to that bound.
func (d *Doc) Events() []protocol.Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]protocol.Event, 0, len(d.events))
	out = append(out, d.events[d.oldest:]...)
	return append(out, d.events[:d.oldest]...)
}

// Peers returns the replica's live presence view — user → cursor
// position — as folded from the awareness event stream (no server round
// trip; Presence() asks the server instead). The view covers activity
// since this replica subscribed, and is corrected to the authoritative
// roster whenever the server pushes a presence snapshot.
func (d *Doc) Peers() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.peers))
	for u, pos := range d.peers {
		out[u] = pos
	}
	return out
}

// apply folds one pushed event into the replica. Events arrive in per-doc
// sequence order; only a gap (the bus dropped us) or a lagged notice forces
// a resync — every text-changing event, undo and redo included, carries
// the positions to replay. While a base is in flight, pushes wait in
// pending rather than being dropped.
//
// apply runs on the connection's read loop, so it must never issue a
// request itself — the response could only be delivered by the very loop
// that would be blocked waiting for it. Resyncs therefore run on their own
// goroutine.
func (d *Doc) apply(ev *protocol.Event) {
	d.mu.Lock()
	if ev.Kind == protocol.EvLagged {
		// The server says we fell behind: the replica has holes. Resubscribe,
		// then fetch the committed state.
		d.lagged = true
		d.resyncLocked(protocol.Event{Name: "lagged", N: ev.N})
		d.mu.Unlock()
		return
	}
	if ev.Kind == protocol.EvPresence {
		// Synthetic full-roster snapshot, out of band with the document
		// event stream: its sequence number is whatever the bus was at
		// when the server sent it (often ≤ the replica's — the dedup
		// below would drop it), and it must apply even mid-resync, since
		// a resync restores text, never presence. Replace the roster
		// wholesale and leave d.seq alone.
		peers := make(map[string]int, len(ev.Batch))
		for _, it := range ev.Batch {
			peers[it.Text] = it.Pos
		}
		d.peers = peers
		d.unlockAndTell(*ev, 0)
		return
	}
	if ev.Seq <= d.seq { // duplicate or pre-snapshot event
		d.mu.Unlock()
		return
	}
	if d.resyncing || ev.Seq != d.seq+1 {
		d.pending = append(d.pending, *ev)
		if !d.resyncing {
			d.resyncLocked(protocol.Event{Name: "gap"})
		}
		d.mu.Unlock()
		return
	}
	d.seq = ev.Seq
	d.foldLocked(ev)
	d.unlockAndTell(*ev, ev.Seq)
}

// resyncAttempts is how many times a resync is tried before it is given
// up.
const resyncAttempts = 5

// resyncLocked starts a background resync whose watcher event is why
// (caller holds d.mu). After a lagged notice it resubscribes first. A
// transient failure is retried after a back-off that grows by 50 ms an
// attempt — giving up silently would leave the replica frozen; a failed
// resync surfaces on the next read or edit, as soon as the last attempt
// fails.
func (d *Doc) resyncLocked(why protocol.Event) {
	d.resyncing = true
	d.resyncErr = nil
	go func() {
		var err error
		for attempt := 1; ; attempt++ {
			err = nil
			if why.Name == "lagged" {
				_, err = d.c.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: d.id})
			}
			if err == nil {
				if err = d.resync(why); err == nil {
					return
				}
			}
			if attempt == resyncAttempts {
				break
			}
			// Back off; the wait ends early only once the connection is
			// gone, and then there is nothing left to recover.
			d.mu.Lock()
			gone := d.waitLocked(func() bool { return false }, time.Duration(attempt)*50*time.Millisecond)
			d.mu.Unlock()
			if gone != nil {
				err = gone
				break
			}
		}
		d.mu.Lock()
		d.resyncing = false
		d.resyncErr = err
		d.wake.Broadcast()
		d.mu.Unlock()
	}()
}

// noTimeout is waitLocked's timeout for a wait that only ok, the
// connection or a resync ends.
const noTimeout = time.Duration(-1)

// waitLocked waits on d.wake (caller holds d.mu) until ok reports true or
// the timeout has passed, and returns nil; or until the replica cannot
// catch up, and returns why: ErrClosed once the connection is gone, or the
// error its last resync gave up on.
func (d *Doc) waitLocked(ok func() bool, timeout time.Duration) error {
	expired := timeout == 0
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			d.mu.Lock()
			expired = true
			d.wake.Broadcast()
			d.mu.Unlock()
		})
		defer t.Stop()
	}
	for !ok() && !expired {
		select {
		case <-d.c.done:
			return ErrClosed
		default:
		}
		if d.resyncErr != nil {
			return d.resyncErr
		}
		d.wake.Wait()
	}
	return nil
}

// landLocked adopts a full-text base that is at least as new as the
// replica, then folds the pending pushes that continue the replica's
// sequence (caller holds d.mu). The server pairs a full text with the
// exact event sequence it contains, so the comparison is sound: a push
// applied while the read was in flight can leave the replica *ahead* of
// it, and overwriting would drop that edit's text while the sequence
// number marks it applied. The snapshot version is adopted as-is, not
// max'd: it is only comparable within one server process.
func (d *Doc) landLocked(text string, seq, snap uint64) {
	if seq >= d.seq {
		d.runes = []rune(text)
		d.seq = seq
		d.snap = snap
	}
	d.foldPendingLocked()
}

// foldPendingLocked runs once a base has landed (caller holds d.mu): it
// drops the pending pushes the base already holds and folds the run that
// continues it. If a gap remains, another resync starts; otherwise the
// replica is live again.
func (d *Doc) foldPendingLocked() {
	pend := d.pending
	d.pending = nil
	for i := range pend {
		switch ev := &pend[i]; {
		case ev.Seq <= d.seq:
		case ev.Seq == d.seq+1:
			d.seq = ev.Seq
			d.foldLocked(ev)
		default:
			d.pending = pend[i:]
			d.resyncLocked(protocol.Event{Name: "gap"})
			return
		}
	}
	d.resyncing = false
	d.resyncErr = nil
}

// unlockAndTell releases d.mu (which the caller holds), hands ev to the
// watcher, and only then lets Seq report seq — the sequence number the
// caller folded up to under the lock — and wakes the replica's waiters.
// The callback runs without the lock because watchers call back into the
// replica; Seq never moves backwards, so a resync finishing after a newer
// push changes nothing.
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
	case "join", "cursor":
		if d.peers == nil {
			d.peers = make(map[string]int)
		}
		d.peers[ev.User] = ev.Pos
	case "leave":
		delete(d.peers, ev.User)
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

// Resync brings the replica back in step with the committed state after a
// gap. It first attempts a delta resync: the server replays only the
// events after the replica's sequence number from its bounded op ring —
// O(gap) on the wire — and falls back to the full text when the gap
// outlived retention.
func (d *Doc) Resync() error { return d.resync(protocol.Event{Name: "explicit"}) }

// resync is Resync that tells the watcher why, as a "resync" event whose
// Name is the cause.
func (d *Doc) resync(why protocol.Event) error {
	why.Doc, why.Kind = d.id, "resync"
	done, err := d.deltaResync(why)
	if err != nil || done {
		return err
	}
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpText, Doc: d.id})
	if err != nil {
		return err
	}
	d.adoptFull(resp, why)
	return nil
}

// deltaResync asks for the events after the replica's sequence number and
// folds them in. It reports done=false when the replica must fall back to
// a full fetch (a torn delta — possible only on a server bug — rather
// than a covered-but-empty one).
func (d *Doc) deltaResync(why protocol.Event) (bool, error) {
	d.mu.Lock()
	since := d.seq
	d.mu.Unlock()
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpResync, Doc: d.id, Since: since})
	if err != nil {
		return false, err
	}
	if resp.Full {
		d.adoptFull(resp, why)
		return true, nil
	}
	d.mu.Lock()
	for i := range resp.Events {
		ev := &resp.Events[i]
		if ev.Seq <= d.seq {
			continue // a concurrent push already applied it
		}
		if ev.Seq != d.seq+1 {
			d.mu.Unlock()
			return false, nil // torn delta: take the full path
		}
		d.seq = ev.Seq
		d.foldLocked(ev)
	}
	d.foldPendingLocked()
	d.unlockAndTell(why, d.seq)
	return true, nil
}

// adoptFull folds a full-text read (OpText response or a Full resync
// response) into the replica and tells the watcher why.
func (d *Doc) adoptFull(resp *protocol.Message, why protocol.Event) {
	d.mu.Lock()
	d.landLocked(resp.Text, resp.Seq, resp.Snap)
	d.unlockAndTell(why, d.seq)
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
func (d *Doc) Copy(pos, n int) (*protocol.Clip, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpCopy, Doc: d.id, Pos: pos, N: n})
	if err != nil {
		return nil, err
	}
	return resp.Clip, nil
}

// Paste inserts a clipboard at pos, naming the clipboard's source as the
// text's provenance.
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

// Note anchors a note at pos.
func (d *Doc) Note(pos int, text string) error {
	return d.edit(protocol.EditOp{Kind: protocol.EditNote, Pos: pos, Text: text})
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

// VersionText fetches the text of a version.
func (d *Doc) VersionText(id uint64) (string, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpVersionText, Doc: d.id, Version: id})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Read records a read event on the server and returns the text the read
// saw, served by the replica: the server answers with the sequence number
// of the state it read, and Read waits until Seq reports it. So a read
// holds every edit acknowledged before it (read-your-writes) and costs a
// few bytes on the wire however long the document. A user whom range
// rules deny part of the text reads it as the replica holds it, each
// denied character masked with █ (server.MaskRune) rather than left out.
// Read fails with ErrClosed once the connection is gone, and with the
// error a resync gave up on when the replica cannot catch up. Do not call
// it from a Watch callback: the replica does not advance until the
// callback returns.
func (d *Doc) Read() (string, error) {
	resp, err := d.c.call(&protocol.Message{Op: protocol.OpRead, Doc: d.id})
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.waitLocked(func() bool { return d.told >= resp.Seq }, noTimeout); err != nil {
		return "", err
	}
	return string(d.runes), nil
}

// MoveCursor publishes the user's cursor position (awareness).
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

// WaitSeq blocks until Seq reports seq — the replica has applied it and the
// watcher's callback for it has returned (tests and deterministic demos).
// It waits at most attempts × 2 ms in all, and resyncs if pushes stall for
// half of that or the replica cannot catch up on its own.
func (d *Doc) WaitSeq(seq uint64, attempts int) error {
	budget := time.Duration(attempts) * 2 * time.Millisecond
	reached := func() bool { return d.told >= seq }
	d.mu.Lock()
	err := d.waitLocked(reached, budget/2)
	caughtUp := reached()
	d.mu.Unlock()
	switch {
	case caughtUp:
		return nil
	case errors.Is(err, ErrClosed):
		return err
	}
	if err := d.Resync(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.waitLocked(reached, budget-budget/2); err != nil {
		return err
	}
	if !reached() {
		return fmt.Errorf("client: replica stuck at seq %d < %d", d.told, seq)
	}
	return nil
}
