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
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/metrics"
	"tendax/internal/placement"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// Wire-frame cache keys for the awareness encode-once fan-out: v1 peers
// share one cached JSON line, v3 peers one binary frame.
const (
	frameKeyJSON   = 2
	frameKeyBinary = 3
)

func frameKeyFor(ver int) int {
	if ver >= protocol.Version3 {
		return frameKeyBinary
	}
	return frameKeyJSON
}

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
	// Indexer progress for /metrics, resolved per scrape so it works
	// whether StartIndexers ran before or after the server came up.
	s.metrics.SetIndexStats(func() (metrics.IndexStats, bool) {
		ic := cl.Index()
		if ic == nil {
			return metrics.IndexStats{}, false
		}
		st := ic.Stats()
		return metrics.IndexStats{
			Docs: st.Docs, AppliedOps: st.Applied,
			Heals: st.Heals, LagDocs: st.Lag,
			DeltaRefreshes: st.Delta,
			FullRefreshes:  metrics.IndexFullRefreshes(st.Full),
		}, true
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
		c := &conn{srv: s, codec: protocol.NewCodec(nc),
			lastInsert: make(map[util.ID]util.ID),
			subs:       make(map[util.ID]*awareness.Subscription),
			redactors:  make(map[util.ID]*redactor)}
		c.rlEdit, c.rlSub = s.rl.connBuckets()
		c.ver.Store(protocol.Version1)
		c.codec.SetByteCounters(&s.metrics.BytesIn, &s.metrics.BytesOut)
		s.metrics.Conns.Add(1)
		s.mu.Lock()
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
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

	// Negotiated connection state. ver is the negotiated version
	// (Version1 until a hello upgrades it); it is written by the serve
	// loop and read by push pumps, hence atomic. lastInsert tracks, per
	// document, the last character instance inserted on this connection —
	// the seed for "prev" anchors, which let a pipelined client keep
	// typing after text whose server-assigned IDs it has not yet learned.
	// Keyed by document so sessions on different documents of one
	// connection never contaminate each other's anchors; it is touched
	// only by the serve loop.
	ver        atomic.Int32
	lastInsert map[util.ID]util.ID

	// Per-connection rate-limit buckets (nil when the server runs
	// unlimited); the matching per-user buckets live on the server.
	rlEdit, rlSub *tokenBucket

	mu        sync.Mutex
	subs      map[util.ID]*awareness.Subscription
	redactors map[util.ID]*redactor
	dead      bool
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

func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.close()
	for {
		req, err := c.codec.Recv()
		if err != nil {
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
	if req.Op != protocol.OpLogin && req.Op != protocol.OpHello && c.user == "" {
		return fail(errors.New("server: not logged in"))
	}
	switch req.Op {
	case protocol.OpLogin:
		return c.login(req)
	case protocol.OpHello:
		// Version negotiation: a peer that asks for v3 or more gets v3,
		// anyone else v1. Clients that never say hello stay on v1 — the
		// entire v1 surface keeps working regardless. Landing on v3 flips
		// this side's outbound framing to binary: the peer asked for it,
		// and its receiver auto-detects per frame, so even the hello
		// response itself may already be binary-framed. The switch is
		// one-way — a later downgrade hello lowers the advertised version
		// but the peer has proven it decodes binary. Shards is routing
		// metadata: advisory today (one address serves every shard), the
		// seam the multi-node phase redirects through.
		ver := protocol.Version1
		if req.Ver >= protocol.Version3 {
			ver = protocol.Version3
			c.codec.EnableBinary()
		}
		c.ver.Store(int32(ver))
		return &protocol.Message{OK: true, Ver: ver, Shards: c.srv.cl.Shards()}
	case protocol.OpEdit, protocol.OpInsert, protocol.OpAppend, protocol.OpDelete,
		protocol.OpPaste, protocol.OpLayout, protocol.OpNote:
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

// pump drains one subscription onto the wire until it closes.
func (c *conn) pump(docID util.ID, sub *awareness.Subscription) {
	for {
		ev, ok := sub.Next()
		if !ok {
			return
		}
		if ev.Kind == awareness.EvGap {
			ok = c.healGap(docID, ev.N)
		} else {
			ok = c.pushEvent(&ev)
		}
		if !ok {
			return
		}
	}
}

// pushEvent encodes one (already filtered) event for this connection's
// negotiated version and writes it. The wire-cache key uses the
// visibility class the redactor stamped into the event while masking it
// (ev.VisClass) — never a fresh read of the redactor's state, which a
// concurrent redact on the request goroutine may have moved on from.
// Returns false once the connection is torn down.
func (c *conn) pushEvent(ev *awareness.Event) bool {
	// A multi-op batch pushes as ONE "batch" event. A subscriber that
	// never negotiated v3 predates that kind: it would advance its
	// sequence number without folding the text and silently diverge
	// forever. Translate the event into the v1 vocabulary it does
	// understand — the advisory "lagged" push, whose documented recovery
	// (resubscribe + resync) lands the replica on the committed state.
	// The subscription itself stays live (the resubscribe deduplicates),
	// so no event is lost around the resync. (This per-connection
	// translation is deliberately uncached — it is not the shared event.)
	ver := int(c.ver.Load())
	if ev.Kind == awareness.EvBatch && ver < protocol.Version3 {
		return c.pushLagged(protocol.Event{
			Doc: uint64(ev.Doc), Seq: ev.Seq, AtNS: ev.At.UnixNano(), Name: protocol.LaggedBatch,
		})
	}
	// Encode-once fan-out, keyed by (protocol family, visibility class):
	// the first pump to push this event for a given key renders the
	// frame — one JSON line shared by every all-visible v1 subscriber,
	// one binary frame for v3, and one frame per restricted class — and
	// all later pumps with the same key reuse the bytes.
	frame, err := ev.Wire.Get(classKey(frameKeyFor(ver), ev.VisClass), func() ([]byte, error) {
		return protocol.EncodeFrame(
			&protocol.Message{Type: protocol.TypePush, Event: wireEvent(ev)}, ver)
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
// join/leave/cursor events inside the gap are gone as well, so a v3 peer
// also gets the current roster as one synthetic snapshot; v1 has no word
// for it. Returns false once the connection is torn down.
func (c *conn) healGap(docID util.ID, n int) bool {
	c.srv.metrics.Heals.Add(1)
	if !c.pushLagged(protocol.Event{
		Doc: uint64(docID), Seq: c.srv.busFor(docID).Seq(docID),
		AtNS: c.srv.clock().Now().UnixNano(), Name: protocol.LaggedRingMiss, N: n,
	}) {
		return false
	}
	return int(c.ver.Load()) < protocol.Version3 || c.pushPresence(docID)
}

// pushPresence sends a synthetic EvPresence snapshot carrying the
// document's full current roster (one Batch item per present user: Text
// the name, Pos the cursor). It is per-connection and never cached across
// subscribers — the event was not published on the bus, so it carries a
// private wire cache. Presence is user names and cursor positions, never
// document text, so it bypasses the redactor exactly like the live
// EvJoin/EvLeave/EvCursor stream does. Returns false once the connection
// is torn down.
func (c *conn) pushPresence(docID util.ID) bool {
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
	return c.pushEvent(&ev)
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

// edit is the server's one editing entry point. An "edit" frame carries
// the batch; a v1 insert/append/delete/paste/layout/note frame is
// translated to a batch of one positional op. Either way: one rate-limit
// admission, every op committed in ONE transaction by
// core.Document.ApplyAsync, and ONE durability wait just before the ack —
// while this connection sleeps in it, every other connection keeps
// applying and committing, so independent editors share one WAL fsync.
// An "edit" frame gets the per-op results (operation IDs, created
// instance IDs, resolved positions) so the peer learns the identities of
// the text it typed; a v1 frame gets the single operation (or span) ID.
func (c *conn) edit(req *protocol.Message) *protocol.Message {
	if ok, retry := c.allowEdit(time.Now()); !ok {
		c.srv.metrics.Throttles.Add(1)
		return throttledResp(retry)
	}
	d, err := c.doc(req)
	if err != nil {
		return fail(err)
	}
	var ops []core.EditOp
	if req.Op == protocol.OpEdit {
		ops, err = c.batchOps(d.ID(), req.Ops)
	} else {
		ops, err = v1Ops(req)
	}
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
	switch req.Op {
	case protocol.OpEdit:
		out := make([]protocol.EditResult, len(results))
		for i, r := range results {
			er := protocol.EditResult{OpID: uint64(r.OpID), Span: uint64(r.Span), Pos: r.Pos}
			if len(r.IDs) > 0 {
				er.IDs = make([]uint64, len(r.IDs))
				for j, id := range r.IDs {
					er.IDs[j] = uint64(id)
				}
			}
			out[i] = er
		}
		return &protocol.Message{OK: true, Results: out}
	case protocol.OpLayout, protocol.OpNote:
		return &protocol.Message{OK: true, OpID: uint64(results[0].Span)}
	default:
		return &protocol.Message{OK: true, OpID: uint64(results[0].OpID)}
	}
}

// batchOps decodes a batch's wire ops, resolving connection-relative
// "prev" anchors.
func (c *conn) batchOps(doc util.ID, wire []protocol.EditOp) ([]core.EditOp, error) {
	if len(wire) == 0 {
		return nil, errors.New("server: empty edit batch")
	}
	ops := make([]core.EditOp, len(wire))
	seenInsert := false
	for i, op := range wire {
		co := core.EditOp{Kind: op.Kind, Pos: op.Pos, Text: op.Text, N: op.N,
			Span: op.Span, Value: op.Value, Chars: coreIDs(op.Chars)}
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

// v1Ops translates a v1 single-op edit frame into a batch of one
// positional op: a position and an instance ID are two presentations of
// the same operation, and Apply resolves either.
func v1Ops(req *protocol.Message) ([]core.EditOp, error) {
	var op core.EditOp
	switch req.Op {
	case protocol.OpInsert:
		op = core.EditOp{Kind: core.EditInsert, Pos: req.Pos, Text: req.Text}
	case protocol.OpAppend:
		op = core.EditOp{Kind: core.EditInsert, Pos: -1, Text: req.Text}
	case protocol.OpDelete:
		op = core.EditOp{Kind: core.EditDelete, Pos: req.Pos, N: req.N}
	case protocol.OpPaste:
		if req.Clip == nil {
			return nil, errors.New("server: paste without clip")
		}
		op = core.EditOp{Kind: core.EditInsert, Pos: req.Pos, Text: req.Clip.Text,
			SrcDoc: util.ID(req.Clip.SrcDoc), SrcChars: coreIDs(req.Clip.SrcChars)}
	case protocol.OpLayout:
		op = core.EditOp{Kind: core.EditLayout, Pos: req.Pos, N: req.N,
			Span: req.Kind, Value: req.Value}
	case protocol.OpNote:
		op = core.EditOp{Kind: core.EditNote, Pos: req.Pos, Text: req.Text}
	}
	return []core.EditOp{op}, nil
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
// O(document). When the gap has outlived retention, the
// response falls back to the full consistent text exactly like a v1
// resync.
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
		for i := range evs {
			ev := evs[i]
			if red != nil {
				ev = red.redact(ev)
			}
			out[i] = *wireEvent(&ev)
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

// wireEvent converts a bus event to its wire form (pushes and resync
// deltas share it).
func wireEvent(ev *awareness.Event) *protocol.Event {
	out := &protocol.Event{
		Seq: ev.Seq, Doc: uint64(ev.Doc), Kind: string(ev.Kind),
		User: ev.User, Pos: ev.Pos, Text: ev.Text, N: ev.N,
		Name: ev.Name, AtNS: ev.At.UnixNano(),
	}
	if len(ev.Batch) > 0 {
		out.Batch = make([]protocol.BatchItem, len(ev.Batch))
		for i, it := range ev.Batch {
			ids := make([]uint64, len(it.IDs))
			for j, id := range it.IDs {
				ids[j] = uint64(id)
			}
			out.Batch[i] = protocol.BatchItem{Kind: string(it.Kind), Pos: it.Pos,
				Text: it.Text, N: it.N, IDs: ids}
		}
	}
	return out
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
