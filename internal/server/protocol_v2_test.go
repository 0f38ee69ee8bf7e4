// Protocol-v3 server tests: the hello and the refusal of anything else,
// ID-anchored edit batches, pipelined sessions, and the
// convergence guarantees the redesign is for.
package server

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tendax/internal/client"
	"tendax/internal/protocol"
	"tendax/internal/util"
)

func docFromID(id uint64) util.ID { return util.ID(id) }

// rawCall dials a one-shot wire-level connection, logs in as user, sends
// req and returns its response — for tests that assert the exact response
// shape rather than the client library's interpretation of it.
func rawCall(t *testing.T, addr, user string, req *protocol.Message) *protocol.Message {
	t.Helper()
	return wireAt(t, addr, user, "").call(req)
}

// stallAcks holds d's connection's read loop inside the replica's watcher
// from the first event it is told until release. While it is held no
// acknowledgement reaches a session on that connection, so what the
// session types goes out at the batch limit, behind batches in flight.
// held is closed once the loop is held.
func stallAcks(t *testing.T, d *client.Doc) (held <-chan struct{}, release func()) {
	stalled, resume := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	var once sync.Once
	d.Watch(func(protocol.Event) {
		once.Do(func() {
			close(stalled)
			<-resume
		})
	})
	return stalled, release
}

func TestHelloNegotiation(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	// A session needs no second hello.
	id, err := c.CreateDocument("re-hello")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Session()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A second hello for v3 is answered like the first.
	w := wireAt(t, addr, "alice", "")
	if resp := w.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax}); resp.Ver != protocol.Version3 {
		t.Fatalf("second hello: v%d", resp.Ver)
	}
}

// TestPreV3RequestsRefused pins what a peer that does not open with a v3
// hello gets: a JSON line ends its connection, and a v3 frame other than a
// hello for v3 — a login first, or a hello for version 1 or 2 — gets the
// typed unsupported error naming v3, on a connection that stays usable for
// the hello it needs.
func TestPreV3RequestsRefused(t *testing.T) {
	addr, _, _, srv := harnessSrv(t, false)
	t.Run("JSON login line", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write([]byte(`{"type":"req","id":1,"op":"login","user":"alice"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after a JSON line: %d bytes, %v; want the connection closed", n, err)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Conns.Load() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Conns gauge at %d after the refused connection closed, want 0", srv.Metrics().Conns.Load())
			}
		}
	})
	for _, tc := range []struct {
		name string
		req  protocol.Message
	}{
		{"login before hello", protocol.Message{Op: protocol.OpLogin, User: "alice"}},
		{"hello for v1", protocol.Message{Op: protocol.OpHello, Ver: 1}},
		{"hello for v2", protocol.Message{Op: protocol.OpHello, Ver: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := dialRaw(t, addr)
			resp := w.callErr(&tc.req)
			if resp.OK || resp.Code != protocol.ErrUnsupported || !strings.Contains(resp.Err, "v3") {
				t.Fatalf("response %+v, want the unsupported error naming v3", resp)
			}
			// Still no hello: a list is refused the same way.
			if resp := w.callErr(&protocol.Message{Op: protocol.OpListDocs}); resp.Code != protocol.ErrUnsupported {
				t.Fatalf("list before hello: %+v", resp)
			}
			w.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax})
			w.call(&protocol.Message{Op: protocol.OpLogin, User: "alice"})
			w.call(&protocol.Message{Op: protocol.OpListDocs})
		})
	}
}

func TestEditBatchThroughServer(t *testing.T) {
	addr, eng := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("batch-doc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Seq()

	// First batch: positional bootstrap plus prev-anchored continuation —
	// TWO ops, ONE transaction, ONE pushed event.
	res, err := d.EditBatch([]protocol.EditOp{
		{Kind: protocol.EditInsert, Pos: 0, Text: "hello "},
		{Kind: protocol.EditInsert, Prev: true, Text: "world"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0].IDs) != 6 || len(res[1].IDs) != 5 {
		t.Fatalf("results %+v", res)
	}
	// Second batch: cross-batch prev anchor (connection state), then an
	// anchored delete of instances learned from the first ack.
	if _, err := d.EditBatch([]protocol.EditOp{
		{Kind: protocol.EditInsert, Prev: true, Text: "!"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EditBatch([]protocol.EditOp{
		{Kind: protocol.EditDelete, Chars: res[0].IDs[:5]}, // "hello"
	}); err != nil {
		t.Fatal(err)
	}
	if err := waitSeq(d, base+3); err != nil {
		t.Fatal(err)
	}
	const want = " world!"
	if got := d.Text(); got != want {
		t.Fatalf("replica %q, want %q", got, want)
	}
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if got := srvDoc.Text(); got != want {
		t.Fatalf("server %q, want %q", got, want)
	}
	if err := srvDoc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPipelinedTyping(t *testing.T) {
	addr, eng := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("session-doc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Session()
	if err != nil {
		t.Fatal(err)
	}
	// The first key's push holds the read loop, so the keys after it
	// queue behind unacknowledged batches.
	held, release := stallAcks(t, d)
	var want strings.Builder
	for i := 0; i < 300; i++ {
		ch := string(rune('a' + i%26))
		if err := s.Type(ch); err != nil {
			t.Fatal(err)
		}
		want.WriteString(ch)
		if i == 0 {
			<-held
		}
	}
	// At most two batches went out with none in flight: the first key's,
	// and the second key's if the first acknowledgement was read before
	// the stall. The other 298 keys went out per 128 behind them.
	if s.Flushes() < 3 {
		t.Fatalf("%d flushes before any acknowledgement: want a batch behind one in flight", s.Flushes())
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Flushes() >= 300 {
		t.Fatalf("no coalescing: %d flushes for 300 keystrokes", s.Flushes())
	}
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if got := srvDoc.Text(); got != want.String() {
		t.Fatalf("server text %q, want %q", got, want.String())
	}
}

func TestSessionMoveToAnchorsMidDocument(t *testing.T) {
	addr, eng := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("session-move")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Type("Head Tail"); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	// Jump the cursor between the words and keep typing.
	if err := s.MoveTo(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Type(" Mid"); err != nil {
		t.Fatal(err)
	}
	if err := s.Type("dle"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if got := srvDoc.Text(); got != "Head Middle Tail" {
		t.Fatalf("text %q, want %q", got, "Head Middle Tail")
	}
}

// TestConvergenceUnderStalePositions is the convergence regression the
// redesign exists for: two clients editing around the same region with
// STALE position knowledge. Under position addressing the late edit is
// demonstrably misplaced; under ID anchors both intents land and both
// replicas converge byte-for-byte.
func TestConvergenceUnderStalePositions(t *testing.T) {
	addr, eng := harness(t, false)

	setup := func(name string) (h, c1, c2 *client.Doc) {
		host := login(t, addr, "host", "")
		docID, err := host.CreateDocument(name)
		if err != nil {
			t.Fatal(err)
		}
		hd, err := host.Open(docID)
		if err != nil {
			t.Fatal(err)
		}
		if err := hd.Insert(0, "AB"); err != nil {
			t.Fatal(err)
		}
		cl1 := login(t, addr, "u1", "")
		cl2 := login(t, addr, "u2", "")
		d1, err := cl1.Open(docID)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := cl2.Open(docID)
		if err != nil {
			t.Fatal(err)
		}
		return hd, d1, d2
	}

	// --- Position addressing misplaces the concurrent edit. ---
	{
		_, d1, d2 := setup("positional-stale")
		// u2 decides, from the state "AB", to append YYY after B (pos 2) —
		// but u1's XXX commits first, so pos 2 now points inside XXX.
		if err := d1.Insert(1, "XXX"); err != nil {
			t.Fatal(err)
		}
		if err := d2.Insert(2, "YYY"); err != nil { // stale position!
			t.Fatal(err)
		}
		srvDoc, err := eng.OpenDocument(docFromID(d1.ID()))
		if err != nil {
			t.Fatal(err)
		}
		got := srvDoc.Text()
		// Intent was "...B YYY at the end"; the position scatters YYY
		// inside XXX.
		if got == "AXXXBYYY" {
			t.Fatalf("position addressing unexpectedly converged to the intent: %q", got)
		}
		if got != "AXYYYXXB" {
			t.Fatalf("positional misplacement changed shape: %q", got)
		}
	}

	// --- The same race, anchored by identity, lands the intent. ---
	{
		_, d1, d2 := setup("anchored")
		// Both clients resolve their anchors against the SAME initial
		// state "AB" — everything each one knows is now stale-able.
		aIDs, err := d1.Anchors(0, 2) // [A B]
		if err != nil {
			t.Fatal(err)
		}
		bIDs, err := d2.Anchors(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		// u1 inserts XXX after A; u2 appends YYY after B. u1 commits
		// first, moving B — u2's anchor still lands after B's identity.
		if _, err := d1.EditBatch([]protocol.EditOp{
			{Kind: protocol.EditInsert, After: &aIDs[0], Text: "XXX"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := d2.EditBatch([]protocol.EditOp{
			{Kind: protocol.EditInsert, After: &bIDs[1], Text: "YYY"},
		}); err != nil {
			t.Fatal(err)
		}
		srvDoc, err := eng.OpenDocument(docFromID(d1.ID()))
		if err != nil {
			t.Fatal(err)
		}
		if got := srvDoc.Text(); got != "AXXXBYYY" {
			t.Fatalf("anchors: %q, want AXXXBYYY", got)
		}
		// Both replicas converge byte-for-byte with the server.
		if err := waitSeq(d1, srvDoc.Snapshot().Seq()); err != nil {
			t.Fatal(err)
		}
		if err := waitSeq(d2, srvDoc.Snapshot().Seq()); err != nil {
			t.Fatal(err)
		}
		if d1.Text() != "AXXXBYYY" || d2.Text() != "AXXXBYYY" {
			t.Fatalf("replicas diverged: %q vs %q", d1.Text(), d2.Text())
		}
	}
}

// TestConvergenceConcurrentSessions races two pipelined sessions typing
// into different regions and requires byte-for-byte convergence of both
// replicas and the server.
func TestConvergenceConcurrentSessions(t *testing.T) {
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("race")
	if err != nil {
		t.Fatal(err)
	}
	hd, err := host.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := hd.Insert(0, "<>"); err != nil {
		t.Fatal(err)
	}

	type typist struct {
		c    *client.Client
		d    *client.Doc
		s    *client.Session
		pos  int
		text string
		// held and release stall the typist's acknowledgements (stallAcks).
		held    <-chan struct{}
		release func()
	}
	// Each typist types more than four batch limits' worth of keys.
	typists := []*typist{
		{c: login(t, addr, "left", ""), pos: 1, text: strings.Repeat("llll-", 104)},
		{c: login(t, addr, "right", ""), pos: 2, text: strings.Repeat("rrrr-", 104)},
	}
	// Anchors resolve sequentially against the same initial state "<>";
	// the typing itself then races. Each session's continuation anchors
	// after its own previous insert, so neither session can tear the
	// other's run apart no matter how the batches interleave.
	for _, ty := range typists {
		d, err := ty.c.Open(docID)
		if err != nil {
			t.Fatal(err)
		}
		ty.d = d
		s, err := d.Session()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.MoveTo(ty.pos); err != nil {
			t.Fatal(err)
		}
		ty.s = s
	}
	// Once a typist's first key is out, its read loop is held, so the
	// keys after it go out as batches behind ones in flight: pipelined
	// batches from both sessions interleave at the server.
	for _, ty := range typists {
		ty.held, ty.release = stallAcks(t, ty.d)
	}
	var wg sync.WaitGroup
	for _, ty := range typists {
		wg.Add(1)
		go func(ty *typist) {
			defer wg.Done()
			for i, r := range ty.text {
				if err := ty.s.Type(string(r)); err != nil {
					t.Error(err)
					return
				}
				if i == 0 {
					<-ty.held
				}
			}
			// At most two batches went out with none in flight
			// (TestSessionPipelinedTyping); 518 keys went out per 128
			// behind them.
			if f := ty.s.Flushes(); f < 5 {
				t.Errorf("%d flushes before any acknowledgement: want three batches behind one in flight", f)
			}
			ty.release()
			if err := ty.s.Close(); err != nil {
				t.Error(err)
			}
		}(ty)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	got := srvDoc.Text()
	// Each session's run must be contiguous (anchored continuation), and
	// everything typed must be present exactly once.
	if !strings.Contains(got, typists[0].text) || !strings.Contains(got, typists[1].text) {
		t.Fatalf("a session's run was torn apart: %q", got)
	}
	if len(got) != 2+len(typists[0].text)+len(typists[1].text) {
		t.Fatalf("lost or duplicated text: %q", got)
	}
	// All replicas converge to the server text.
	seq := srvDoc.Snapshot().Seq()
	for _, ty := range typists {
		if err := waitSeq(ty.d, seq); err != nil {
			t.Fatal(err)
		}
		if ty.d.Text() != got {
			t.Fatalf("replica %q diverged from server %q", ty.d.Text(), got)
		}
	}
	if err := srvDoc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
