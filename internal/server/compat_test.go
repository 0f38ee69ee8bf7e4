// Backwards compatibility: a v1 client — one that never says hello and
// speaks only position-addressed single-op requests — must keep working
// against the server, including live collaboration with v3 peers.
package server

import (
	"net"
	"testing"

	"tendax/internal/protocol"
)

// v1Wire is a raw wire-level client: unless a test negotiates v3 on it, it
// only ever sends the original v1 request shapes.
type v1Wire struct {
	t     *testing.T
	codec *protocol.Codec
	next  int64
	// pushes received while waiting for responses, in arrival order.
	pushes []*protocol.Event
}

func dialV1(t *testing.T, addr string) *v1Wire {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &v1Wire{t: t, codec: protocol.NewCodec(nc)}
	t.Cleanup(func() { w.codec.Close() })
	return w
}

func (w *v1Wire) call(m *protocol.Message) *protocol.Message {
	w.t.Helper()
	w.next++
	m.Type = protocol.TypeRequest
	m.ID = w.next
	if err := w.codec.Send(m); err != nil {
		w.t.Fatal(err)
	}
	for {
		resp, err := w.codec.Recv()
		if err != nil {
			w.t.Fatal(err)
		}
		if resp.Type == protocol.TypePush && resp.Event != nil {
			w.pushes = append(w.pushes, resp.Event)
			continue
		}
		if resp.Type == protocol.TypeResponse && resp.ID == m.ID {
			if resp.Err != "" {
				w.t.Fatalf("%s: %s", m.Op, resp.Err)
			}
			return resp
		}
	}
}

func TestV1WireClientFullSurface(t *testing.T) {
	addr, _ := harness(t, false)
	w := dialV1(t, addr)

	w.call(&protocol.Message{Op: protocol.OpLogin, User: "v1user"})
	doc := w.call(&protocol.Message{Op: protocol.OpCreateDoc, Name: "legacy"}).Doc
	w.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: doc})
	w.call(&protocol.Message{Op: protocol.OpInsert, Doc: doc, Pos: 0, Text: "hello world"})
	w.call(&protocol.Message{Op: protocol.OpLayout, Doc: doc, Pos: 0, N: 5, Kind: "bold", Value: "true"})
	w.call(&protocol.Message{Op: protocol.OpNote, Doc: doc, Pos: 0, Text: "nb"})
	w.call(&protocol.Message{Op: protocol.OpVersion, Doc: doc, Name: "v1"})
	w.call(&protocol.Message{Op: protocol.OpDelete, Doc: doc, Pos: 0, N: 6})
	w.call(&protocol.Message{Op: protocol.OpUndo, Doc: doc, Scope: protocol.ScopeLocal})
	if got := w.call(&protocol.Message{Op: protocol.OpText, Doc: doc}).Text; got != "hello world" {
		t.Fatalf("after undo of delete: %q", got)
	}
	w.call(&protocol.Message{Op: protocol.OpRedo, Doc: doc, Scope: protocol.ScopeLocal})
	if got := w.call(&protocol.Message{Op: protocol.OpText, Doc: doc}).Text; got != "world" {
		t.Fatalf("after redo: %q", got)
	}
	w.call(&protocol.Message{Op: protocol.OpCursor, Doc: doc, Pos: 3})
	if ps := w.call(&protocol.Message{Op: protocol.OpPresence, Doc: doc}).Present; len(ps) != 1 {
		t.Fatalf("presence %v", ps)
	}
	if hist := w.call(&protocol.Message{Op: protocol.OpHistory, Doc: doc}).History; len(hist) < 5 {
		t.Fatalf("history %d entries", len(hist))
	}
}

// TestV1SubscriberSeesV2Batches puts a v1 library client and a v3
// batching session into the same document. The server never sends a
// "batch" event to a connection that did not negotiate v3 — it
// translates it into the advisory "lagged" push whose documented v1
// recovery (resubscribe + resync) lands the replica on the committed
// state — so the v1 replica must converge after every batch, and the v1
// client's own position-addressed edits must keep committing.
func TestV1SubscriberSeesV2Batches(t *testing.T) {
	addr, eng := harness(t, false)

	v1 := login(t, addr, "legacy", "")
	docID, err := v1.CreateDocument("mixed")
	if err != nil {
		t.Fatal(err)
	}
	v1doc, err := v1.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1doc.Insert(0, "[]"); err != nil {
		t.Fatal(err)
	}

	v3 := loginVer(t, addr, "modern", "", protocol.VersionMax)
	v3doc, err := v3.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	base := v3doc.Seq()
	// One multi-op batch from the v3 side: ONE push event for the v1
	// replica to fold.
	anchors, err := v3doc.Anchors(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3doc.EditBatch([]protocol.EditOp{
		{Kind: protocol.EditInsert, After: &anchors[0], Text: "abc"},
		{Kind: protocol.EditInsert, Prev: true, Text: "def"},
		{Kind: protocol.EditDelete, Chars: []uint64{anchors[1]}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := v1doc.WaitSeq(base+1, 500); err != nil {
		t.Fatal(err)
	}
	srvDoc, err := eng.OpenDocument(docFromID(docID))
	if err != nil {
		t.Fatal(err)
	}
	want := srvDoc.Text()
	if want != "[abcdef" {
		t.Fatalf("server %q", want)
	}
	if got := v1doc.Text(); got != want {
		t.Fatalf("v1 replica %q, want %q", got, want)
	}
	// The convergence went through the lagged→resync translation, not
	// through a batch event the v1 wire vocabulary does not contain.
	if !v1doc.Lagged() {
		t.Fatal("v1 replica converged without the lagged translation")
	}
	// And the v1 side keeps editing positionally against the new state.
	if err := v1doc.Insert(7, "!"); err != nil {
		t.Fatal(err)
	}
	if got := srvDoc.Text(); got != "[abcdef!" {
		t.Fatalf("after v1 edit: %q", got)
	}
}
