// Package server implements the TeNDaX daemon: a TCP server hosting one
// or more engine shards, serving any number of editor connections. Every
// committed editing transaction is pushed to all subscribers of the
// document, which is what turns the database into a real-time
// collaborative editor backend. With multiple shards each request is
// routed to its document's engine (internal/placement) — the protocol
// never changes, only which WAL and awareness bus serve the document.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sync"
	"time"
	"unicode/utf8"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/index"
	"tendax/internal/metrics"
	"tendax/internal/placement"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// Server hosts a shard cluster on a TCP listener.
type Server struct {
	cl      *placement.Cluster
	sec     *security.Store // nil = no authentication (trusted LAN demo mode)
	metrics *metrics.Metrics
	rl      *rateLimiter // nil = unlimited

	visMu      sync.Mutex
	visClasses map[uint64]int // visibility fingerprint -> dense class ID

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]bool
	closed   bool
	logf     func(format string, args ...interface{})
	wg       sync.WaitGroup
	OnListen func(addr net.Addr) // test hook
}

// New creates a server over a single engine. sec may be nil to accept any
// user name without a password (the LAN-party demo configuration).
func New(eng *core.Engine, sec *security.Store) *Server {
	return NewCluster(placement.Wrap(eng), sec)
}

// NewCluster creates a server over a placement cluster: every request is
// routed to the engine shard owning its document. All shards share the
// server's aggregate shed/unread-depth counters; per-shard commit counters
// are kept when the cluster has more than one shard.
func NewCluster(cl *placement.Cluster, sec *security.Store) *Server {
	s := &Server{
		cl:         cl,
		sec:        sec,
		metrics:    metrics.New(),
		visClasses: make(map[uint64]int),
		conns:      make(map[*conn]bool),
		logf:       log.Printf,
	}
	s.metrics.EnableShards(cl.Shards())
	cl.Each(func(sh *placement.Shard) {
		sh.Engine.Bus().SetCounters(&s.metrics.Sheds, &s.metrics.QueueDepth)
	})
	s.metrics.SetLogFailed(func() bool {
		failed := false
		cl.Each(func(sh *placement.Shard) { failed = failed || sh.Engine.DB().Log().Failed() })
		return failed
	})
	// Indexer progress for /metrics, resolved per scrape so it works
	// whether StartIndexers ran before or after the server came up.
	s.metrics.SetIndexStats(func() (metrics.IndexStats, bool) {
		ic := cl.Index()
		if ic == nil {
			return metrics.IndexStats{}, false
		}
		shards := ic.ShardStats()
		st := index.Total(shards)
		out := metrics.IndexStats{
			Docs: st.Docs, AppliedOps: st.Applied,
			Heals: st.Heals, LagDocs: st.Lag,
			DeltaRefreshes: st.Delta,
			FullRefreshes:  metrics.IndexFullRefreshes(st.Full),
			LagEvents:      st.LagEvents,
			Shards:         make([]metrics.IndexShardStats, len(shards)),
		}
		for i, sh := range shards {
			out.Shards[i] = metrics.IndexShardStats{Shard: i, Docs: sh.Docs,
				AppliedOps: sh.Applied, LagDocs: sh.Lag, LagEvents: sh.LagEvents}
		}
		return out, true
	})
	return s
}

// engineFor resolves the engine shard owning doc.
func (s *Server) engineFor(doc util.ID) *core.Engine { return s.cl.EngineFor(doc) }

// busFor resolves the awareness bus of the shard owning doc.
func (s *Server) busFor(doc util.ID) *awareness.Bus { return s.cl.BusFor(doc) }

// clock returns the cluster-wide clock.
func (s *Server) clock() util.Clock { return s.cl.Clock() }

// Metrics exposes the server's hot-path counters (tendaxd serves them on
// the -pprof debug endpoint).
func (s *Server) Metrics() *metrics.Metrics { return s.metrics }

// SetRateLimit configures per-connection token-bucket rates for edit
// batches and subscription ops (each also enforced per user at 4x). Zero
// (the default) disables the respective limiter. Call before Serve.
func (s *Server) SetRateLimit(editsPerSec, subsPerSec float64) {
	s.rl = newRateLimiter(editsPerSec, subsPerSec)
	if s.rl != nil {
		s.metrics.SetUserThrottles(s.rl.stats)
	} else {
		s.metrics.SetUserThrottles(nil)
	}
}

// SetLogf replaces the server's logger (tests silence it).
func (s *Server) SetLogf(f func(string, ...interface{})) { s.logf = f }

// Listen binds addr ("host:port", port 0 picks a free one) and returns the
// bound address. Serve must be called to accept connections.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.OnListen != nil {
		s.OnListen(ln.Addr())
	}
	return ln.Addr(), nil
}

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.accept(nc)
	}
}

// accept registers nc, an established connection, and serves it on its
// own goroutine.
func (s *Server) accept(nc net.Conn) {
	c := &conn{srv: s, codec: protocol.NewCodec(nc),
		lastInsert: make(map[util.ID]util.ID),
		subs:       make(map[util.ID]*awareness.Subscription),
		redactors:  make(map[util.ID]*redactor)}
	c.rlEdit, c.rlSub = s.rl.connBuckets()
	c.codec.SetByteCounters(&s.metrics.BytesIn, &s.metrics.BytesOut)
	s.metrics.Conns.Add(1)
	s.mu.Lock()
	s.conns[c] = true
	s.mu.Unlock()
	s.wg.Add(1)
	go c.serve()
}

// Close stops accepting and tears down every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		s.metrics.Conns.Add(-1)
	}
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one editor connection.
type conn struct {
	srv   *Server
	codec *protocol.Codec
	user  string

	// Connection state, touched only by the serve loop. helloed is set
	// once the peer has said hello for v3. lastInsert tracks, per
	// document, the last character instance inserted on this connection —
	// the seed for "prev" anchors, which let a pipelined client keep
	// typing after text whose server-assigned IDs it has not yet learned.
	// Keyed by document so sessions on different documents of one
	// connection never contaminate each other's anchors.
	helloed    bool
	lastInsert map[util.ID]util.ID

	// Per-connection rate-limit buckets (nil when the server runs
	// unlimited); the matching per-user buckets live on the server.
	rlEdit, rlSub *tokenBucket

	mu        sync.Mutex
	subs      map[util.ID]*awareness.Subscription
	redactors map[util.ID]*redactor
	dead      bool

	// The serve loop's scratch for an edit: the batch's engine ops, and
	// the acknowledgement with its results and their instance IDs, which
	// the loop has sent before it reads the next request.
	ops     []core.EditOp
	ack     protocol.Message
	results []protocol.EditResult
	ids     []uint64
}

// redactor returns this connection's (lazily created) redactor for doc —
// shared by the subscription pump and the resync path so both see one
// consistent hidden set. Nil without a security store.
func (c *conn) redactor(doc util.ID) *redactor {
	if c.srv.sec == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.redactors[doc]
	if r == nil {
		r = c.srv.newRedactor(c.user, doc)
		c.redactors[doc] = r
	}
	return r
}

func (c *conn) close() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	subs := c.subs
	c.subs = map[util.ID]*awareness.Subscription{}
	user := c.user
	c.mu.Unlock()
	for doc, sub := range subs {
		sub.Close()
		if user != "" {
			c.srv.busFor(doc).Leave(doc, user, c.srv.clock().Now())
		}
	}
	_ = c.codec.Close()
	c.srv.dropConn(c)
}

// serve decodes every request into one message it owns and answers it;
// nothing kept past a request refers to that message's storage (see
// protocol.Codec.RecvInto). A frame the codec refuses — a JSON line from
// a version-1 client, say — ends the connection.
func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.close()
	req := new(protocol.Message)
	for {
		if err := c.codec.RecvInto(req); err != nil {
			return
		}
		if req.Type != protocol.TypeRequest {
			continue
		}
		resp := c.handle(req)
		resp.Type = protocol.TypeResponse
		resp.ID = req.ID
		if err := c.codec.Send(resp); err != nil {
			return
		}
	}
}

func fail(err error) *protocol.Message {
	return &protocol.Message{Err: err.Error()}
}

// throttledResp is the typed rate-limit rejection: machine-readable code
// plus a retry-after hint (floored at 1ms so a hint-obeying client never
// busy-spins).
func throttledResp(retry time.Duration) *protocol.Message {
	return &protocol.Message{Err: "server: throttled, retry later",
		Code: protocol.ErrThrottled, RetryMS: max(retry.Milliseconds(), 1)}
}

func (c *conn) handle(req *protocol.Message) *protocol.Message {
	if req.Op == protocol.OpHello || !c.helloed {
		return c.hello(req)
	}
	if req.Op != protocol.OpLogin && c.user == "" {
		return fail(errors.New("server: not logged in"))
	}
	switch req.Op {
	case protocol.OpLogin:
		return c.login(req)
	case protocol.OpEdit:
		return c.edit(req)
	case protocol.OpAnchors:
		return c.anchors(req)
	case protocol.OpResync:
		return c.resync(req)
	case protocol.OpCreateDoc:
		d, err := c.srv.cl.CreateDocument(c.user, req.Name)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Doc: uint64(d.ID())}
	case protocol.OpListDocs:
		infos, err := c.srv.cl.ListDocuments()
		if err != nil {
			return fail(err)
		}
		out := make([]protocol.DocInfo, len(infos))
		for i, in := range infos {
			out[i] = wireInfo(in)
		}
		return &protocol.Message{OK: true, Docs: out}
	// Full-document reads (open, resync, plain text) are served from the
	// document's MVCC snapshot: the traversal and the socket write happen
	// entirely off the document lock, so a slow or resyncing connection
	// never stalls the editors committing keystrokes. SnapshotSeq pairs the
	// text with a bus sequence number that is exactly consistent with it
	// (the seed read the two separately, so an edit committing in between
	// was dropped by the client as a pre-snapshot duplicate); the response
	// also carries the snapshot version so clients can order reads.
	case protocol.OpOpenDoc:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		snap, seq := d.SnapshotSeq()
		text, err := snap.TextFor(c.user)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Doc: req.Doc, Text: text,
			Seq: seq, Snap: snap.Version()}
	case protocol.OpText:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		snap, seq := d.SnapshotSeq()
		text, err := snap.TextFor(c.user)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Text: text,
			Seq: seq, Snap: snap.Version()}
	case protocol.OpRead:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		text, err := d.RecordRead(c.user)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Text: text}
	case protocol.OpCopy:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		clip, err := d.Copy(c.user, req.Pos, req.N)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Clip: wireClip(clip)}
	case protocol.OpUndo, protocol.OpRedo:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		var opID util.ID
		switch {
		case req.Op == protocol.OpUndo && req.Scope == protocol.ScopeGlobal:
			opID, err = d.UndoGlobal(c.user)
		case req.Op == protocol.OpUndo:
			opID, err = d.UndoLocal(c.user)
		case req.Scope == protocol.ScopeGlobal:
			opID, err = d.RedoGlobal(c.user)
		default:
			opID, err = d.RedoLocal(c.user)
		}
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, OpID: uint64(opID)}
	case protocol.OpVersion:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		v, err := d.CreateVersion(c.user, req.Name)
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, OpID: uint64(v.ID)}
	case protocol.OpVersions:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		vs, err := d.Versions()
		if err != nil {
			return fail(err)
		}
		out := make([]protocol.Version, len(vs))
		for i, v := range vs {
			out[i] = protocol.Version{ID: uint64(v.ID), Name: v.Name,
				Author: v.Author, AtNS: v.At.UnixNano()}
		}
		return &protocol.Message{OK: true, Versions: out}
	case protocol.OpVersionText:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		text, err := d.VersionText(util.ID(req.Version))
		if err != nil {
			return fail(err)
		}
		return &protocol.Message{OK: true, Text: text}
	case protocol.OpHistory:
		d, err := c.doc(req)
		if err != nil {
			return fail(err)
		}
		hist := d.History()
		out := make([]protocol.HistoryOp, len(hist))
		for i, h := range hist {
			out[i] = protocol.HistoryOp{ID: uint64(h.ID), User: h.User,
				Kind: h.Kind, Chars: h.Chars, Undone: h.Undone}
		}
		return &protocol.Message{OK: true, History: out}
	case protocol.OpSubscribe:
		return c.subscribe(req)
	case protocol.OpUnsubscribe:
		c.unsubscribe(util.ID(req.Doc))
		return &protocol.Message{OK: true}
	case protocol.OpCursor:
		c.srv.busFor(util.ID(req.Doc)).MoveCursor(util.ID(req.Doc), c.user, req.Pos, c.srv.clock().Now())
		return &protocol.Message{OK: true}
	case protocol.OpPresence:
		ps := c.srv.busFor(util.ID(req.Doc)).Present(util.ID(req.Doc))
		out := make([]protocol.Presence, len(ps))
		for i, p := range ps {
			out[i] = protocol.Presence{User: p.User, Cursor: p.Cursor}
		}
		return &protocol.Message{OK: true, Present: out}
	case protocol.OpQuery:
		return c.query(req)
	default:
		return fail(fmt.Errorf("server: unknown op %q", req.Op))
	}
}

// hello answers the request every connection opens with: a hello asking
// for v3 or more gets v3. Anything else — a request before the hello, or a
// hello for an older version — gets the typed unsupported error, and the
// connection stays open for a hello that asks for v3. Shards is routing
// metadata: advisory today (one address serves every shard), the seam the
// multi-node phase redirects through.
func (c *conn) hello(req *protocol.Message) *protocol.Message {
	if req.Op != protocol.OpHello || req.Ver < protocol.Version3 {
		return &protocol.Message{Code: protocol.ErrUnsupported,
			Err: "server: only protocol v3 is spoken: open the connection with a hello for v3"}
	}
	c.helloed = true
	return &protocol.Message{OK: true, Ver: protocol.Version3, Shards: c.srv.cl.Shards()}
}

func (c *conn) login(req *protocol.Message) *protocol.Message {
	if req.User == "" {
		return fail(errors.New("server: empty user"))
	}
	if c.srv.sec != nil {
		if err := c.srv.sec.Authenticate(req.User, req.Password); err != nil {
			return fail(err)
		}
	}
	c.user = req.User
	return &protocol.Message{OK: true, User: req.User}
}

func (c *conn) doc(req *protocol.Message) (*core.Document, error) {
	return c.srv.cl.OpenDocument(util.ID(req.Doc))
}

// subscribe registers for a document's events and starts the push pump.
// Subscription churn is rate-limited like edit traffic. The subscription
// is a cursor into the document's op ring, with the connection's
// redactor installed as the per-subscriber filter so every pushed event
// is already ACL-filtered when the pump encodes it.
func (c *conn) subscribe(req *protocol.Message) *protocol.Message {
	if ok, retry := c.allowSubscribe(time.Now()); !ok {
		c.srv.metrics.Throttles.Add(1)
		return throttledResp(retry)
	}
	docID := util.ID(req.Doc)
	if _, err := c.srv.cl.OpenDocument(docID); err != nil {
		return fail(err)
	}
	if err := c.srv.checkRead(c.user, docID); err != nil {
		return fail(err)
	}
	bus := c.srv.busFor(docID)
	red := c.redactor(docID)
	c.mu.Lock()
	if _, dup := c.subs[docID]; dup {
		c.mu.Unlock()
		return &protocol.Message{OK: true}
	}
	sub := bus.Subscribe(docID, awareness.SubscribeOpts{Filter: red.subscribeFilter()})
	c.subs[docID] = sub
	c.mu.Unlock()

	bus.Join(docID, c.user, c.srv.clock().Now())
	go c.pump(docID, sub)
	return &protocol.Message{OK: true, Seq: bus.Seq(docID)}
}

// pushScratch is one subscription pump's reusable wire state: the push
// message and event a bus event is converted into, the instance IDs of its
// items, and the encoder that renders the frame the wire cache keeps.
type pushScratch struct {
	m   protocol.Message
	ev  protocol.Event
	ids []uint64
	enc protocol.FrameEncoder
}

// pump drains one subscription onto the wire until it closes.
func (c *conn) pump(docID util.ID, sub *awareness.Subscription) {
	sc := new(pushScratch)
	for {
		ev, ok := sub.Next()
		if !ok {
			return
		}
		if ev.Kind == awareness.EvGap {
			ok = c.healGap(docID, ev.N, sc)
		} else {
			ok = c.pushEvent(&ev, sc)
		}
		if !ok {
			return
		}
	}
}

// pushEvent encodes one (already filtered) event and writes it. The
// wire-cache key is the visibility class the redactor stamped into the
// event while masking it
// (ev.VisClass) — never a fresh read of the redactor's state, which a
// concurrent redact on the request goroutine may have moved on from.
// The frame is rendered in the pump's scratch sc and copied once, at its
// exact size, into the cache. Returns false once the connection is torn
// down.
func (c *conn) pushEvent(ev *awareness.Event, sc *pushScratch) bool {
	// Encode-once fan-out, keyed by visibility class: the first pump to
	// push this event for a class renders the frame — one shared by every
	// all-visible subscriber, one per restricted class — and all later
	// pumps of the same class reuse the bytes.
	frame, err := ev.Wire.Get(ev.VisClass, func() ([]byte, error) {
		sc.ids = wireEvent(&sc.ev, ev, sc.ids[:0])
		sc.m = protocol.Message{Type: protocol.TypePush, Event: &sc.ev}
		return sc.enc.Encode(&sc.m), nil
	})
	if err != nil {
		c.close()
		return false
	}
	if err := c.codec.SendRaw(frame); err != nil {
		c.close()
		return false
	}
	c.srv.metrics.Pushes.Add(1)
	return true
}

// healGap answers a gap of n events, which always means the reader fell
// further behind than the op ring reaches: the advisory "lagged" push
// (cause ring_miss, N = n) tells the client to fetch the committed text
// (the subscription stays live and resumes after the gap). The
// join/leave/cursor events inside the gap are gone as well, so the peer
// also gets the current roster as one synthetic snapshot. Returns false
// once the connection is torn down.
func (c *conn) healGap(docID util.ID, n int, sc *pushScratch) bool {
	c.srv.metrics.Heals.Add(1)
	if !c.pushLagged(protocol.Event{
		Doc: uint64(docID), Seq: c.srv.busFor(docID).Seq(docID),
		AtNS: c.srv.clock().Now().UnixNano(), Name: protocol.LaggedRingMiss, N: n,
	}) {
		return false
	}
	return c.pushPresence(docID, sc)
}

// pushPresence sends a synthetic EvPresence snapshot carrying the
// document's full current roster (one Batch item per present user: Text
// the name, Pos the cursor). It is per-connection and never cached across
// subscribers — the event was not published on the bus, so it carries a
// private wire cache. Presence is user names and cursor positions, never
// document text, so it bypasses the redactor exactly like the live
// EvJoin/EvLeave/EvCursor stream does. Returns false once the connection
// is torn down.
func (c *conn) pushPresence(docID util.ID, sc *pushScratch) bool {
	bus := c.srv.busFor(docID)
	ps := bus.Present(docID)
	items := make([]awareness.BatchItem, len(ps))
	for i, p := range ps {
		items[i] = awareness.BatchItem{Kind: awareness.EvCursor, Text: p.User, Pos: p.Cursor}
	}
	ev := awareness.Event{
		Seq:   bus.Seq(docID),
		Doc:   docID,
		Kind:  awareness.EvPresence,
		N:     len(items),
		Batch: items,
		At:    c.srv.clock().Now(),
		Wire:  &awareness.WireCache{},
	}
	return c.pushEvent(&ev, sc)
}

// pushLagged sends ev as the advisory "lagged" push: the client
// resubscribes (a no-op if still subscribed) and resynchronises from
// committed state. Returns false once the connection is torn down.
func (c *conn) pushLagged(ev protocol.Event) bool {
	ev.Kind = protocol.EvLagged
	if err := c.codec.Send(&protocol.Message{Type: protocol.TypePush, Event: &ev}); err != nil {
		c.close()
		return false
	}
	return true
}

func (c *conn) unsubscribe(doc util.ID) {
	c.mu.Lock()
	sub := c.subs[doc]
	delete(c.subs, doc)
	user := c.user
	c.mu.Unlock()
	if sub != nil {
		sub.Close()
		c.srv.busFor(doc).Leave(doc, user, c.srv.clock().Now())
	}
}

// edit is the server's one editing entry point: an "edit" frame carries
// the batch, and the paper's positional edits arrive as batches of one.
// One rate-limit admission, every op committed in ONE transaction by
// core.Document.ApplyAsync, and ONE durability wait just before the ack —
// while this connection sleeps in it, every other connection keeps
// applying and committing, so independent editors share one WAL fsync.
// The ack carries the per-op results (operation IDs, created instance
// IDs, resolved positions) so the peer learns the identities of the text
// it typed.
func (c *conn) edit(req *protocol.Message) *protocol.Message {
	if ok, retry := c.allowEdit(time.Now()); !ok {
		c.srv.metrics.Throttles.Add(1)
		return throttledResp(retry)
	}
	d, err := c.doc(req)
	if err != nil {
		return fail(err)
	}
	ops, err := c.batchOps(d.ID(), req.Ops)
	if err != nil {
		return fail(err)
	}
	results, lsn, err := d.ApplyAsync(c.user, ops)
	if err != nil {
		return fail(err)
	}
	var keys int64
	for i := range ops {
		if ops[i].Kind == core.EditInsert {
			keys += int64(utf8.RuneCountInString(ops[i].Text))
		}
	}
	m := c.srv.metrics
	m.Batches.Add(1)
	m.Ops.Add(int64(len(ops)))
	m.Keystrokes.Add(keys)
	if sc := m.Shard(c.srv.cl.ShardFor(d.ID())); sc != nil {
		sc.Batches.Add(1)
		sc.Ops.Add(int64(len(ops)))
		sc.Keystrokes.Add(keys)
	}
	for i := len(results) - 1; i >= 0; i-- {
		if ops[i].Kind == core.EditInsert && len(results[i].IDs) > 0 {
			c.lastInsert[d.ID()] = results[i].IDs[len(results[i].IDs)-1]
			break
		}
	}
	// An edit is never acknowledged before it is on stable storage.
	if err := c.srv.engineFor(d.ID()).WaitDurable(lsn); err != nil {
		return fail(err)
	}
	c.results, c.ids = c.results[:0], c.ids[:0]
	for _, r := range results {
		er := protocol.EditResult{OpID: uint64(r.OpID), Span: uint64(r.Span), Pos: r.Pos}
		c.ids, er.IDs = appendWireIDs(c.ids, r.IDs)
		c.results = append(c.results, er)
	}
	c.ack = protocol.Message{OK: true, Results: c.results}
	return &c.ack
}

// batchOps decodes a batch's wire ops, resolving connection-relative
// "prev" anchors, into the serve loop's scratch (the engine copies what
// it keeps of them).
func (c *conn) batchOps(doc util.ID, wire []protocol.EditOp) ([]core.EditOp, error) {
	if len(wire) == 0 {
		return nil, errors.New("server: empty edit batch")
	}
	ops := slices.Grow(c.ops[:0], len(wire))[:len(wire)]
	c.ops = ops
	seenInsert := false
	for i, op := range wire {
		co := core.EditOp{Kind: op.Kind, Pos: op.Pos, Text: op.Text, N: op.N,
			Span: op.Span, Value: op.Value, Chars: coreIDs(op.Chars),
			SrcDoc: util.ID(op.SrcDoc), SrcChars: coreIDs(op.SrcChars)}
		switch {
		case op.Prev:
			// "Prev" chains after the connection's latest insert. Within a
			// batch core resolves it against the batch's own earlier ops;
			// the first such op of a batch is seeded from connection state,
			// which is what lets a pipelined client keep typing before the
			// previous batch's acknowledgement (and its assigned IDs) ever
			// arrives — requests on one connection apply in send order.
			if seenInsert {
				co.AnchorPrev = true
			} else {
				last := c.lastInsert[doc]
				if last.IsNil() {
					return nil, errors.New("server: prev anchor before any insert on this connection")
				}
				co.Anchor, co.UseAnchor = last, true
			}
		case op.After != nil:
			co.Anchor, co.UseAnchor = util.ID(*op.After), true
		}
		if op.Kind == protocol.EditInsert {
			seenInsert = true
		}
		ops[i] = co
	}
	return ops, nil
}

// coreIDs converts wire instance IDs.
func coreIDs(wire []uint64) []util.ID {
	if len(wire) == 0 {
		return nil
	}
	ids := make([]util.ID, len(wire))
	for i, id := range wire {
		ids[i] = util.ID(id)
	}
	return ids
}

// anchors returns the character-instance IDs of the visible range
// [pos, pos+n), from one consistent snapshot, paired with the sequence
// number and snapshot version of the state they were resolved against. A
// client uses them to anchor subsequent edits by identity.
func (c *conn) anchors(req *protocol.Message) *protocol.Message {
	d, err := c.doc(req)
	if err != nil {
		return fail(err)
	}
	n := req.N
	if n <= 0 {
		n = 1
	}
	snap, seq := d.SnapshotSeq()
	ids := snap.Tree().RangeIDs(req.Pos, n)
	if len(ids) != n {
		return fail(fmt.Errorf("server: anchors [%d,%d) of %d chars", req.Pos, req.Pos+n, snap.Len()))
	}
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return &protocol.Message{OK: true, IDs: out, Seq: seq, Snap: snap.Version()}
}

// resync serves a delta resync: the events after req.Since, straight
// from the awareness bus's bounded op ring — O(gap) on the wire instead of
// O(document). When the gap has outlived retention, the response falls
// back to the full consistent text, as an OpText read gives.
func (c *conn) resync(req *protocol.Message) *protocol.Message {
	d, err := c.doc(req)
	if err != nil {
		return fail(err)
	}
	// Same gate as subscribe: a user denied doc-level read gets no event
	// replay. (The full-text fallback below re-checks through TextFor, but
	// the replay path would otherwise hand redacted-by-range-rules-only
	// events to a user who may not read the document at all.)
	if err := c.srv.checkRead(c.user, d.ID()); err != nil {
		return fail(err)
	}
	evs, ok := c.srv.busFor(d.ID()).EventsSince(d.ID(), req.Since)
	if ok {
		red := c.redactor(d.ID())
		out := make([]protocol.Event, len(evs))
		var ids []uint64
		for i := range evs {
			ev := evs[i]
			if red != nil {
				ev = red.redact(ev)
			}
			ids = wireEvent(&out[i], &ev, ids)
		}
		return &protocol.Message{OK: true, Events: out}
	}
	snap, seq := d.SnapshotSeq()
	text, err := snap.TextFor(c.user)
	if err != nil {
		return fail(err)
	}
	return &protocol.Message{OK: true, Full: true, Text: text,
		Seq: seq, Snap: snap.Version()}
}

// wireEvent writes a bus event's wire form into out (pushes and resync
// deltas share it), reusing out's batch list. The items' instance IDs go
// into ids (see appendWireIDs), which is returned.
func wireEvent(out *protocol.Event, ev *awareness.Event, ids []uint64) []uint64 {
	*out = protocol.Event{
		Seq: ev.Seq, Doc: uint64(ev.Doc), Kind: string(ev.Kind),
		User: ev.User, Pos: ev.Pos, Text: ev.Text, N: ev.N,
		Name: ev.Name, Batch: out.Batch[:0], AtNS: ev.At.UnixNano(),
	}
	for _, it := range ev.Batch {
		item := protocol.BatchItem{Kind: string(it.Kind), Pos: it.Pos, Text: it.Text, N: it.N}
		ids, item.IDs = appendWireIDs(ids, it.IDs)
		out.Batch = append(out.Batch, item)
	}
	return ids
}

// appendWireIDs appends instance IDs to buf as wire IDs and returns buf
// and a view of what it appended, which later appends leave intact.
func appendWireIDs(buf []uint64, ids []util.ID) (grown, view []uint64) {
	from := len(buf)
	for _, id := range ids {
		buf = append(buf, uint64(id))
	}
	return buf, buf[from:len(buf):len(buf)]
}

func wireInfo(in core.DocInfo) protocol.DocInfo {
	return protocol.DocInfo{
		ID: uint64(in.ID), Name: in.Name, Creator: in.Creator, Size: in.Size,
		State: in.State, Authors: in.Authors, ModifiedNS: in.Modified.UnixNano(),
	}
}

func wireClip(c core.Clipboard) *protocol.Clip {
	chars := make([]uint64, len(c.SrcChars))
	for i, id := range c.SrcChars {
		chars[i] = uint64(id)
	}
	return &protocol.Clip{Text: c.Text, SrcDoc: uint64(c.SrcDoc), SrcChars: chars}
}
