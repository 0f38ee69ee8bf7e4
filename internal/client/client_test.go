package client

import (
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/protocol"
	"tendax/internal/server"
)

func harness(t *testing.T) string {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil)
	srv.SetLogf(func(string, ...interface{}) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		database.Close()
	})
	return addr.String()
}

func TestDialLoginClose(t *testing.T) {
	addr := harness(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("alice", ""); err != nil {
		t.Fatal(err)
	}
	if c.User() != "alice" {
		t.Fatalf("User = %q", c.User())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDocument("x"); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("doc")
	d1, err := c.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("second Open returned a different replica")
	}
}

func TestReplicaConvergesUnderConcurrentClients(t *testing.T) {
	addr := harness(t)
	host, _ := Dial(addr)
	defer host.Close()
	host.Login("host", "")
	docID, _ := host.CreateDocument("converge")
	hd, err := host.Open(docID)
	if err != nil {
		t.Fatal(err)
	}

	const clients, ops = 4, 15
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Login("u", "")
			d, err := c.Open(docID)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < ops; j++ {
				if err := d.Append("ab"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// The host replica must converge to the full text.
	if err := hd.Resync(); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("ab", clients*ops)
	if hd.Text() != want {
		t.Fatalf("host replica = %d chars, want %d", len(hd.Text()), len(want))
	}
}

func TestEventsRecorded(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("events")
	d, _ := c.Open(id)
	base := d.Seq()
	d.Insert(0, "one")
	d.Delete(0, 1)
	if err := d.WaitSeq(base+2, 500); err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	if len(evs) < 2 {
		t.Fatalf("events = %v", evs)
	}
	last := evs[len(evs)-1]
	if last.Kind != "delete" || last.N != 1 {
		t.Fatalf("last event = %+v", last)
	}
}

func TestWatchCallback(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("watched")
	d, _ := c.Open(id)
	got := make(chan protocol.Event, 8)
	d.Watch(func(ev protocol.Event) { got <- ev })
	base := d.Seq()
	d.Insert(0, "ping")
	if err := d.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	ev := <-got
	if ev.Kind != "insert" || ev.Text != "ping" {
		t.Fatalf("watched event = %+v", ev)
	}
}

func TestListDocuments(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	c.CreateDocument("one")
	c.CreateDocument("two")
	infos, err := c.ListDocuments()
	if err != nil || len(infos) != 2 {
		t.Fatalf("ListDocuments = %v, %v", infos, err)
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	addr := harness(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Login("alice", "")
	id, _ := c.CreateDocument("err")
	d, _ := c.Open(id)
	if err := d.Insert(99, "out of range"); err == nil {
		t.Fatal("out-of-range insert succeeded")
	}
	if err := d.Delete(0, 5); err == nil {
		t.Fatal("delete on empty doc succeeded")
	}
	// The connection survives errors.
	if err := d.Insert(0, "fine"); err != nil {
		t.Fatal(err)
	}
}

// TestSeqNeverAheadOfWatcher pins the ordering Seq and WaitSeq promise: the
// sequence number they report reaches n only after the watcher's callback
// for event n has returned, on the push path and on the resync path alike.
// Whoever polls Seq to learn that a replica has caught up (keystroke-bench's
// convergence check does) may then close the books the watcher keeps.
func TestSeqNeverAheadOfWatcher(t *testing.T) {
	addr := harness(t)
	open := func(user string, id uint64) (*Client, *Doc) {
		c, err := Dial(addr, WithUser(user))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if id == 0 {
			if id, err = c.CreateDocument("gated"); err != nil {
				t.Fatal(err)
			}
		}
		d, err := c.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	_, d := open("alice", 0)
	_, peer := open("bob", d.ID())
	// Let bob's join reach alice's replica before the watcher goes in.
	if err := d.WaitSeq(peer.Seq(), 500); err != nil {
		t.Fatal(err)
	}

	// A watcher that reports each event and then holds its callback open
	// until the test hands it a token.
	entered := make(chan protocol.Event, 8)
	gate := make(chan struct{})
	d.Watch(func(ev protocol.Event) {
		entered <- ev
		<-gate
	})
	t.Cleanup(func() {
		d.Watch(nil)
		close(gate)
	})
	next := func() protocol.Event {
		t.Helper()
		select {
		case ev := <-entered:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("the watcher was never called")
			panic("unreachable")
		}
	}

	// Push path: bob types, the push is folded into alice's replica, the
	// callback is held — Text shows the key, Seq must not report it yet.
	base := d.Seq()
	if err := peer.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	ev := next()
	if ev.Kind != "insert" || ev.Seq != base+1 {
		t.Fatalf("watched %+v, want the insert at seq %d", ev, base+1)
	}
	if got := d.Text(); got != "x" {
		t.Fatalf("text %q while the callback runs, want the event folded already", got)
	}
	if got := d.Seq(); got != base {
		t.Fatalf("Seq() = %d while the callback for event %d is still running, want %d", got, ev.Seq, base)
	}
	gate <- struct{}{}
	if err := d.WaitSeq(ev.Seq, 500); err != nil {
		t.Fatalf("Seq never reached the event after its callback returned: %v", err)
	}

	// Undo is pushed with its positional items like any edit: folded
	// before the callback, reported by Seq only after it.
	if err := peer.Undo(protocol.ScopeLocal); err != nil {
		t.Fatal(err)
	}
	if ev := next(); ev.Kind != "undo" || ev.Seq != base+2 {
		t.Fatalf("watched %+v, want the undo at seq %d", ev, base+2)
	}
	if got := d.Text(); got != "" {
		t.Fatalf("text %q while the undo callback runs, want the undo folded already", got)
	}
	if got := d.Seq(); got != base+1 {
		t.Fatalf("Seq() = %d while the undo callback is still running, want %d", got, base+1)
	}
	gate <- struct{}{}
	if err := d.WaitSeq(base+2, 500); err != nil {
		t.Fatalf("Seq never reached the undo after its callback returned: %v", err)
	}

	// Resync path: stand in for a detected gap — while a resync is
	// pending the replica holds pushes back until the resync lands — so
	// bob's next key reaches the replica through the resync, which
	// announces itself with a "resync" event.
	d.mu.Lock()
	d.resyncing = true
	d.mu.Unlock()
	if err := peer.Insert(0, "y"); err != nil {
		t.Fatal(err)
	}
	resynced := make(chan error, 1)
	go func() { resynced <- d.Resync() }()
	if ev := next(); ev.Kind != "resync" {
		t.Fatalf("watched %+v, want the resync", ev)
	}
	if got := d.Text(); got != "y" {
		t.Fatalf("text %q while the resync callback runs, want the key adopted already", got)
	}
	if got := d.Seq(); got != base+2 {
		t.Fatalf("Seq() = %d while the resync callback is still running, want %d", got, base+2)
	}
	gate <- struct{}{}
	if err := <-resynced; err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.resyncing = false
	d.mu.Unlock()
	if err := d.WaitSeq(base+3, 500); err != nil {
		t.Fatalf("Seq never reached the key after the resync callback returned: %v", err)
	}
}

// scriptServer answers a client over net.Pipe from a script: serve gets
// every request the client sends, in order, and replies through respond
// and push (a send fails only once the test tears the pipe down). resyncs
// counts the requests that fetch a base again (text or resync).
type scriptServer struct {
	codec   *protocol.Codec
	resyncs atomic.Int32
}

func startScript(t *testing.T, serve func(s *scriptServer, req *protocol.Message)) (*Client, *scriptServer) {
	t.Helper()
	cli, srv := net.Pipe()
	c := newClient(cli)
	s := &scriptServer{codec: protocol.NewCodec(srv)}
	t.Cleanup(func() {
		c.Close()
		s.codec.Close()
	})
	go func() {
		for {
			req, err := s.codec.Recv()
			if err != nil {
				return
			}
			if req.Op == protocol.OpText || req.Op == protocol.OpResync {
				s.resyncs.Add(1)
			}
			serve(s, req)
		}
	}()
	return c, s
}

func (s *scriptServer) respond(req, m *protocol.Message) {
	m.Type, m.ID, m.OK = protocol.TypeResponse, req.ID, true
	_ = s.codec.Send(m)
}

func (s *scriptServer) push(ev protocol.Event) {
	ev.Doc = 1
	_ = s.codec.Send(&protocol.Message{Type: protocol.TypePush, Event: &ev})
}

// readWithin runs d.Read and fails the test if it has not returned within
// ten seconds.
func readWithin(t *testing.T, d *Doc) (string, error) {
	t.Helper()
	type result struct {
		text string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		text, err := d.Read()
		done <- result{text, err}
	}()
	select {
	case r := <-done:
		return r.text, r.err
	case <-time.After(10 * time.Second):
		t.Fatalf("Read hangs with the replica at seq %d", d.Seq())
		return "", nil
	}
}

// TestReadWaitsForReplica pins that Read returns the replica's text only
// once the replica reaches the sequence number the server read at: the
// scripted server answers the read at seq 2 and only then pushes events 1
// and 2.
func TestReadWaitsForReplica(t *testing.T) {
	c, _ := startScript(t, func(s *scriptServer, req *protocol.Message) {
		switch req.Op {
		case protocol.OpSubscribe, protocol.OpOpenDoc:
			s.respond(req, &protocol.Message{Seq: 0, Snap: 1})
		case protocol.OpRead:
			s.respond(req, &protocol.Message{Seq: 2})
			s.push(protocol.Event{Seq: 1, Kind: "insert", User: "peer", Pos: 0, Text: "a"})
			s.push(protocol.Event{Seq: 2, Kind: "insert", User: "peer", Pos: 1, Text: "b"})
		}
	})
	d, err := c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	text, err := readWithin(t, d)
	if err != nil {
		t.Fatal(err)
	}
	if text != "ab" {
		t.Fatalf("Read = %q, want %q: it returned before the replica reached the read", text, "ab")
	}
}

// TestReadEndsWithConnection pins that a Read waiting for pushes returns
// ErrClosed when the connection drops instead of waiting forever. The
// scripted server answers the read at seq 5 and drops the connection a
// little later, so that the Read is most likely already waiting; either
// order must end in ErrClosed.
func TestReadEndsWithConnection(t *testing.T) {
	c, _ := startScript(t, func(s *scriptServer, req *protocol.Message) {
		switch req.Op {
		case protocol.OpSubscribe, protocol.OpOpenDoc:
			s.respond(req, &protocol.Message{Seq: 0, Snap: 1})
		case protocol.OpRead:
			s.respond(req, &protocol.Message{Seq: 5})
			time.AfterFunc(20*time.Millisecond, func() { s.codec.Close() })
		}
	})
	d, err := c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readWithin(t, d); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on a dropped connection = %v, want ErrClosed", err)
	}
}

// TestReadSurfacesAbandonedResync pins that a Read behind a gap the
// replica cannot close returns the error its resync gave up on: the
// scripted server refuses every resync. The error surfaces as soon as the
// last attempt is refused, with no back-off after it: the Read returns
// within 125 ms of the last refusal, half the 250 ms a fifth back-off
// would take.
func TestReadSurfacesAbandonedResync(t *testing.T) {
	const refused = "resync refused"
	var last atomic.Int64 // when the server refused the last attempt, in ns
	c, s := startScript(t, func(s *scriptServer, req *protocol.Message) {
		switch req.Op {
		case protocol.OpSubscribe, protocol.OpOpenDoc:
			s.respond(req, &protocol.Message{Seq: 0, Snap: 1})
		case protocol.OpResync, protocol.OpText:
			if s.resyncs.Load() == resyncAttempts {
				last.Store(time.Now().UnixNano())
			}
			_ = s.codec.Send(&protocol.Message{Type: protocol.TypeResponse, ID: req.ID, Err: refused})
		case protocol.OpRead:
			s.respond(req, &protocol.Message{Seq: 3})
		}
	})
	d, err := c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	s.push(protocol.Event{Seq: 3, Kind: "insert", User: "peer", Pos: 0, Text: "c"}) // 1 and 2 are missing
	var re *RemoteError
	if _, err := readWithin(t, d); !errors.As(err, &re) || re.Msg != refused {
		t.Fatalf("Read behind an abandoned resync = %v, want %q", err, refused)
	}
	if n := s.resyncs.Load(); n != resyncAttempts {
		t.Fatalf("%d resync attempts, want %d", n, resyncAttempts)
	}
	if late := time.Since(time.Unix(0, last.Load())); late > 125*time.Millisecond {
		t.Fatalf("Read returned %v after the last resync was refused", late)
	}
}

// TestPushesDuringBaseAreKept pins that a push arriving while the replica
// waits for its base is kept and folded on top of it, not dropped: the
// scripted server writes the push ahead of the response carrying the base.
// On Open the subscriber's own join precedes the open response, and no
// resync may follow. On a resync the server writes push 6 before it
// answers "resync since 3" with events 4–5, and the replica must reach seq
// 6 with that push's text and without a second resync.
func TestPushesDuringBaseAreKept(t *testing.T) {
	idle := func(d *Doc) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			d.mu.Lock()
			busy := d.resyncing
			d.mu.Unlock()
			if !busy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the replica never finished resyncing")
			}
		}
	}
	t.Run("open", func(t *testing.T) {
		c, s := startScript(t, func(s *scriptServer, req *protocol.Message) {
			switch req.Op {
			case protocol.OpSubscribe:
				s.respond(req, &protocol.Message{Seq: 4})
			case protocol.OpOpenDoc:
				s.push(protocol.Event{Seq: 4, Kind: "join", User: "me"})
				s.respond(req, &protocol.Message{Text: "abc", Seq: 4, Snap: 1})
			case protocol.OpResync:
				s.respond(req, &protocol.Message{Full: true, Text: "abc", Seq: 4, Snap: 1})
			}
		})
		d, err := c.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		idle(d)
		if n := s.resyncs.Load(); n != 0 {
			t.Fatalf("Open resynced %d times after its own join", n)
		}
		if d.Text() != "abc" || d.Seq() != 4 {
			t.Fatalf("replica %q at seq %d, want \"abc\" at 4", d.Text(), d.Seq())
		}
	})
	t.Run("resync", func(t *testing.T) {
		ins := func(seq uint64, pos int, text string) protocol.Event {
			return protocol.Event{Seq: seq, Doc: 1, Kind: "insert", User: "peer", Pos: pos, Text: text}
		}
		c, s := startScript(t, func(s *scriptServer, req *protocol.Message) {
			switch req.Op {
			case protocol.OpSubscribe:
				s.respond(req, &protocol.Message{Seq: 3})
			case protocol.OpOpenDoc:
				s.respond(req, &protocol.Message{Text: "abc", Seq: 3, Snap: 1})
			case protocol.OpResync:
				if req.Since != 3 {
					t.Errorf("resync since %d, want 3", req.Since)
				}
				s.push(ins(6, 5, "f"))
				s.respond(req, &protocol.Message{Events: []protocol.Event{ins(4, 3, "d"), ins(5, 4, "e")}})
			}
		})
		d, err := c.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		resynced := make(chan protocol.Event, 1) // the one resync the gap causes
		d.Watch(func(ev protocol.Event) {
			if ev.Kind == "resync" {
				resynced <- ev
			}
		})
		s.push(ins(5, 4, "e")) // 4 is missing: a gap
		select {
		case ev := <-resynced:
			if ev.Name != "gap" {
				t.Fatalf("resync cause %q, want gap", ev.Name)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the gap never led to a resync")
		}
		idle(d)
		if got := d.Text(); got != "abcdef" {
			t.Fatalf("replica %q after the resync, want \"abcdef\": the push that raced the delta was lost", got)
		}
		for deadline := time.Now().Add(5 * time.Second); d.Seq() != 6; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica at seq %d, want 6", d.Seq())
			}
		}
		if n := s.resyncs.Load(); n != 1 {
			t.Fatalf("%d resyncs, want 1", n)
		}
	})
}

// sessionScript is a scripted v3 server holding an empty document 1, with
// a session open on it. The script answers every request but an edit:
// edits are handed to the test unanswered, in send order, and their
// acknowledgements (or errors) go out when the test says.
type sessionScript struct {
	*scriptServer
	c     *Client
	s     *Session
	edits chan *protocol.Message
}

func startSessionScript(t *testing.T) *sessionScript {
	t.Helper()
	edits := make(chan *protocol.Message, 16) // more edits than any test sends
	c, srv := startScript(t, func(s *scriptServer, req *protocol.Message) {
		switch req.Op {
		case protocol.OpSubscribe, protocol.OpOpenDoc:
			s.respond(req, &protocol.Message{Seq: 1, Snap: 1})
		case protocol.OpListDocs:
			s.respond(req, &protocol.Message{})
		case protocol.OpEdit:
			edits <- req
		}
	})
	d, err := c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Session()
	if err != nil {
		t.Fatal(err)
	}
	return &sessionScript{scriptServer: srv, c: c, s: s, edits: edits}
}

// sent returns the edit requests the session has put on the pipe since
// the last call, each checked to carry one op. A listing request goes out
// behind them, and the script serves requests in order, so once it is
// answered every earlier edit is in.
func (ss *sessionScript) sent(t *testing.T) []*protocol.Message {
	t.Helper()
	if _, err := ss.c.ListDocuments(); err != nil {
		t.Fatal(err)
	}
	var reqs []*protocol.Message
	for {
		select {
		case req := <-ss.edits:
			if len(req.Ops) != 1 {
				t.Fatalf("edit request with %d ops, want 1", len(req.Ops))
			}
			reqs = append(reqs, req)
		default:
			return reqs
		}
	}
}

// TestSessionCoalescesBehindInFlightBatch pins the session's ack clock
// without a sleep or a timer: the scripted server holds each edit's
// acknowledgement until the test releases it.
func TestSessionCoalescesBehindInFlightBatch(t *testing.T) {
	ss := startSessionScript(t)
	s := ss.s

	// Nothing in flight: the key goes out at once, at the cursor's anchor.
	if err := s.Type("a"); err != nil {
		t.Fatal(err)
	}
	reqs := ss.sent(t)
	if len(reqs) != 1 || reqs[0].Ops[0].Text != "a" || reqs[0].Ops[0].After == nil {
		t.Fatalf("Type(\"a\") sent %d edits, want one \"a\" at the cursor's anchor", len(reqs))
	}
	first := reqs[0]

	// Behind the held acknowledgement, keys wait.
	if err := s.Type("bcdef"); err != nil {
		t.Fatal(err)
	}
	if reqs := ss.sent(t); len(reqs) != 0 {
		t.Fatalf("%d edits sent while the first was in flight", len(reqs))
	}

	// The acknowledgement sends them, with no Wait. Wake on it until the
	// waiting keys went out or nothing is in flight (they were kept back).
	ss.respond(first, &protocol.Message{})
	s.mu.Lock()
	for s.flushes == 1 && s.inflight == 1 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	reqs = ss.sent(t)
	if len(reqs) != 1 || reqs[0].Ops[0].Text != "bcdef" || !reqs[0].Ops[0].Prev {
		t.Fatalf("the acknowledgement sent %d edits, want one \"bcdef\" after the previous insert", len(reqs))
	}

	// With that acknowledgement held, the batch limit still sends a full
	// batch at once; the two keys past it wait.
	for i := 0; i < 130; i++ {
		if err := s.Type("x"); err != nil {
			t.Fatal(err)
		}
	}
	reqs = ss.sent(t)
	if len(reqs) != 1 || reqs[0].Ops[0].Text != strings.Repeat("x", 128) {
		t.Fatalf("130 keys behind an in-flight batch sent %d edits, want one of 128 keys", len(reqs))
	}
}

// TestSessionMoveToReportsFailedBatch pins that once a batch has failed,
// MoveTo returns that error as Type does, and the keys typed behind the
// failed batch are never sent.
func TestSessionMoveToReportsFailedBatch(t *testing.T) {
	ss := startSessionScript(t)
	s := ss.s
	if err := s.Type("a"); err != nil {
		t.Fatal(err)
	}
	reqs := ss.sent(t)
	if len(reqs) != 1 {
		t.Fatalf("Type(\"a\") sent %d edits, want 1", len(reqs))
	}
	if err := s.Type("bc"); err != nil { // waits behind "a"
		t.Fatal(err)
	}
	const refused = "core: batch op 0: refused"
	_ = ss.codec.Send(&protocol.Message{Type: protocol.TypeResponse, ID: reqs[0].ID, Err: refused})
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()

	var re *RemoteError
	if err := s.MoveTo(0); !errors.As(err, &re) || re.Msg != refused {
		t.Fatalf("MoveTo after a failed batch = %v, want %q", err, refused)
	}
	if err := s.Wait(); !errors.As(err, &re) || re.Msg != refused {
		t.Fatalf("Wait after a failed batch = %v, want %q", err, refused)
	}
	if reqs := ss.sent(t); len(reqs) != 0 {
		t.Fatalf("%d edits sent behind the failed batch", len(reqs))
	}
}

// TestFoldAllocsAtMidDocument pins the replica's fold of a mid-document
// keystroke and its delete at 20k runes: the runes are spliced in place,
// so a fold allocates nothing however long the tail behind the edit.
func TestFoldAllocsAtMidDocument(t *testing.T) {
	const maxAllocs = 0
	d := &Doc{runes: []rune(strings.Repeat("a", 20_000))}
	ins := protocol.Event{Kind: "insert", Pos: 10_000, Text: "x"}
	del := protocol.Event{Kind: "delete", Pos: 10_000, N: 1}
	allocs := testing.AllocsPerRun(200, func() {
		d.foldLocked(&ins)
		d.foldLocked(&del)
	})
	if allocs > maxAllocs {
		t.Fatalf("%.1f allocations per folded insert and delete at 20k runes, want at most %d", allocs, maxAllocs)
	}
	if len(d.runes) != 20_000 || strings.ContainsRune(string(d.runes), 'x') {
		t.Fatal("fold changed the text")
	}
}

// TestEventsKeepNewest pins the replica's event log: a ring of the newest
// eventRetention events, the bus's retention, which Events returns in
// sequence order before and across the wrap. It grows as a slice of the
// events would, and stops growing once it holds the retention.
func TestEventsKeepNewest(t *testing.T) {
	if eventRetention != awareness.DefaultRetention {
		t.Fatalf("the event log keeps %d events, the bus %d", eventRetention, awareness.DefaultRetention)
	}
	for _, total := range []int{1, 2, 3, 5, 1023, 1024, 1025, 1500, 2048, 2049, 3000} {
		d := &Doc{}
		for seq := 1; seq <= total; seq++ {
			d.foldLocked(&protocol.Event{Seq: uint64(seq), Kind: "insert", Pos: seq - 1, Text: "x"})
		}
		evs := d.Events()
		first := max(1, total-eventRetention+1)
		if len(evs) != total-first+1 {
			t.Fatalf("%d events folded: Events holds %d, want %d", total, len(evs), total-first+1)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(first+i) {
				t.Fatalf("%d events folded: Events()[%d] is event %d, want %d", total, i, ev.Seq, first+i)
			}
		}
		var slice []protocol.Event
		for len(slice) < min(total, eventRetention) {
			slice = append(slice, protocol.Event{})
		}
		if slots := cap(slice); cap(d.events) != slots {
			t.Fatalf("%d events folded into %d slots, want %d", total, cap(d.events), slots)
		}
	}
}

// TestReplicaHeapIndependentOfEvents gates the settled heap of a replica
// that a scripted server pushed 10k and then 100k one-key batch events
// into, in the shape the server pushes them (a batch of one op keeps the
// insert or delete event kind): the event log keeps the newest 1024, so
// the heap is the same after both counts, and under 256 KB in all, the
// connection included.
func TestReplicaHeapIndependentOfEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const limit = 256 << 10
	// Each gated figure is the least of its readings over three runs.
	at10k, grew := math.Inf(1), math.Inf(1)
	at100k := leastOf3(func() float64 {
		before := settledHeap() // the connection counts with the replica
		c, s := startScript(t, func(s *scriptServer, req *protocol.Message) {
			switch req.Op {
			case protocol.OpSubscribe, protocol.OpOpenDoc:
				s.respond(req, &protocol.Message{Seq: 0, Snap: 1})
			}
		})
		defer c.Close()
		d, err := c.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(0)
		pushTo := func(n uint64) float64 {
			t.Helper()
			for seq < n {
				seq++
				// A key and its backspace, so the text stays one rune or none.
				ev := protocol.Event{Seq: seq, Kind: "insert", User: "peer", Text: "x", N: 1}
				if seq%2 == 0 {
					ev = protocol.Event{Seq: seq, Kind: "delete", User: "peer", N: 1}
				}
				s.push(ev)
			}
			for deadline := time.Now().Add(30 * time.Second); d.Seq() != n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("replica at seq %d, want %d", d.Seq(), n)
				}
			}
			return float64(settledHeap()) - float64(before)
		}
		ten := pushTo(10_000)
		hundred := pushTo(100_000)
		runtime.KeepAlive(d)
		at10k, grew = min(at10k, ten), min(grew, hundred-ten)
		return hundred
	})
	t.Logf("settled heap of the replica: %.0f B after 10k events, %.0f B after 100k", at10k, at100k)
	if at100k > limit {
		t.Errorf("%.0f B after 100k events, limit %d", at100k, limit)
	}
	if grew > 32<<10 { // a log of every event grows 11 MB
		t.Errorf("the heap grew %.0f B from 10k to 100k events", grew)
	}
}

// leastOf3 returns the least of three readings of measure. A settled-heap
// difference reads high, never low, when something else allocates between
// its two readings, so the least reading is the one a gate compares.
func leastOf3(measure func() float64) float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		least = min(least, measure())
	}
	return least
}

// TestResyncEventsReadableInCallback pins what keystroke-bench's watcher
// relies on: after a gap, the delta resync folds up to the bus's retention
// of events without a callback each, and inside the one "resync" callback
// Events returns every one of them.
func TestResyncEventsReadableInCallback(t *testing.T) {
	const n = eventRetention
	ins := func(seq uint64) protocol.Event {
		return protocol.Event{Seq: seq, Doc: 1, Kind: "insert", User: "peer", Pos: int(seq - 1), Text: "x"}
	}
	c, s := startScript(t, func(s *scriptServer, req *protocol.Message) {
		switch req.Op {
		case protocol.OpSubscribe, protocol.OpOpenDoc:
			s.respond(req, &protocol.Message{Seq: 0, Snap: 1})
		case protocol.OpResync:
			evs := make([]protocol.Event, n)
			for i := range evs {
				evs[i] = ins(uint64(i + 1))
			}
			s.respond(req, &protocol.Message{Events: evs})
		}
	})
	d, err := c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(chan []protocol.Event, 1)
	d.Watch(func(ev protocol.Event) {
		if ev.Kind == "resync" {
			seen <- d.Events()
		}
	})
	s.push(ins(n)) // events 1..n-1 are missing: a gap
	select {
	case evs := <-seen:
		if len(evs) != n {
			t.Fatalf("Events holds %d events in the resync callback, want %d", len(evs), n)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("Events()[%d] is event %d, want %d", i, ev.Seq, i+1)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the gap never led to a resync")
	}
	if got := d.Text(); got != strings.Repeat("x", n) {
		t.Fatalf("replica holds %d runes after the resync, want %d", len(got), n)
	}
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
