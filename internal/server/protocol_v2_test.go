// Protocol-v3 server tests: the hello and the refusal of anything else,
// ID-anchored edit batches, pipelined sessions, delta resync, and the
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

func TestHelloNegotiation(t *testing.T) {
	addr, _ := harness(t, false)
	c := login(t, addr, "alice", "")
	if c.ShardCount() != 1 {
		t.Fatalf("hello advertised %d shards, want 1", c.ShardCount())
	}
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
	if resp := w.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax}); resp.Ver != protocol.Version3 || resp.Shards != 1 {
		t.Fatalf("second hello: v%d with %d shards", resp.Ver, resp.Shards)
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
	if err := d.WaitSeq(base+3, 500); err != nil {
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
	s.SetBatchLimit(16)
	var want strings.Builder
	for i := 0; i < 300; i++ {
		ch := string(rune('a' + i%26))
		if err := s.Type(ch); err != nil {
			t.Fatal(err)
		}
		want.WriteString(ch)
	}
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
		if err := d1.WaitSeq(srvDoc.Snapshot().Seq(), 500); err != nil {
			t.Fatal(err)
		}
		if err := d2.WaitSeq(srvDoc.Snapshot().Seq(), 500); err != nil {
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
	}
	typists := []*typist{
		{c: login(t, addr, "left", ""), pos: 1, text: "llll-llll-llll"},
		{c: login(t, addr, "right", ""), pos: 2, text: "rrrr-rrrr-rrrr"},
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
		s.SetBatchLimit(4) // small batches behind in-flight ones: more interleavings
		if err := s.MoveTo(ty.pos); err != nil {
			t.Fatal(err)
		}
		ty.s = s
	}
	var wg sync.WaitGroup
	for _, ty := range typists {
		wg.Add(1)
		go func(ty *typist) {
			defer wg.Done()
			for _, r := range ty.text {
				if err := ty.s.Type(string(r)); err != nil {
					t.Error(err)
					return
				}
			}
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
		if err := ty.d.WaitSeq(seq, 500); err != nil {
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

func TestDeltaResync(t *testing.T) {
	addr, eng := harness(t, false)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("delta")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(0, "0123456789"); err != nil {
		t.Fatal(err)
	}

	// Another editor commits while we're "offline": mutate server-side so
	// our replica never sees the pushes.
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.InsertText("bob", 10, "-tail"); err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.DeleteRange("bob", 0, 2); err != nil {
		t.Fatal(err)
	}
	// Give the pushes a chance to land, then force the replica behind by
	// resyncing from whatever seq it reached — the point is the response
	// shape, exercised directly below.
	if err := d.Resync(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Text(), srvDoc.Text(); got != want {
		t.Fatalf("after delta resync: %q, want %q", got, want)
	}

	// A gap holding an undo and a redo is replayed as events, not text.
	since := d.Seq()
	if _, err := srvDoc.UndoLocal("bob"); err != nil { // restores the two deleted chars
		t.Fatal(err)
	}
	if _, err := srvDoc.UndoLocal("bob"); err != nil { // hides "-tail"
		t.Fatal(err)
	}
	if _, err := srvDoc.RedoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	resp := rawCall(t, addr, "alice", &protocol.Message{
		Op: protocol.OpResync, Doc: docID, Since: since,
	})
	if resp.Full || len(resp.Events) != 3 {
		t.Fatalf("resync over undo/redo: full=%v, %d events, want 3 events", resp.Full, len(resp.Events))
	}
	if err := d.Resync(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Text(), srvDoc.Text(); got != want {
		t.Fatalf("after delta resync over undo/redo: %q, want %q", got, want)
	}
}

// TestDeltaResyncTransfersGapNotDoc pins the O(gap) wire property: for a
// large document and a small gap, the delta response must be a small
// fraction of the full text; past retention it must fall back to Full.
func TestDeltaResyncTransfersGapNotDoc(t *testing.T) {
	addr, eng := harness(t, false)
	eng.Bus().SetRetention(64)
	c := login(t, addr, "alice", "")
	docID, err := c.CreateDocument("gap")
	if err != nil {
		t.Fatal(err)
	}
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	// A big document with a history far longer than retention...
	if _, err := srvDoc.AppendText("alice", strings.Repeat("x", 20000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // ...of which only the tail is recent
		if _, err := srvDoc.AppendText("alice", "y"); err != nil {
			t.Fatal(err)
		}
	}
	seq := eng.Bus().Seq(docFromID(docID))

	// Raw resync within retention: events only, O(gap).
	resp := rawCall(t, addr, "alice", &protocol.Message{
		Op: protocol.OpResync, Doc: docID, Since: seq - 10,
	})
	if resp.Full {
		t.Fatal("within-retention resync fell back to full text")
	}
	if len(resp.Events) != 10 {
		t.Fatalf("delta events %d, want 10", len(resp.Events))
	}
	deltaBytes := 0
	for _, ev := range resp.Events {
		deltaBytes += len(ev.Text)
	}
	if deltaBytes >= 1000 {
		t.Fatalf("delta carried %d text bytes for a 10-char gap", deltaBytes)
	}

	// Past retention: full fallback with the complete consistent text.
	resp = rawCall(t, addr, "alice", &protocol.Message{
		Op: protocol.OpResync, Doc: docID, Since: 0,
	})
	if !resp.Full {
		t.Fatal("past-retention resync did not fall back")
	}
	if len(resp.Text) != 20100 {
		t.Fatalf("full text %d bytes", len(resp.Text))
	}
	if resp.Seq != seq {
		t.Fatalf("full resync seq %d, want %d", resp.Seq, seq)
	}
}
