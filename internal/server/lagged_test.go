package server

import (
	"net"
	"testing"
	"time"

	"tendax/internal/protocol"
	"tendax/internal/util"
)

// TestLaggedSubscriberGetsFinalPush forces a subscriber further behind
// than the document's op ring reaches, then verifies that the server (a)
// opens the subscription with the subscriber's base, (b) answers the gap
// with a fresh base naming the ring miss, (c) follows it with the presence
// snapshot the gap's join/leave/cursor events were lost from, and (d)
// keeps delivering on the same subscription — one base per gap, and not a
// request from the subscriber after its subscribe. Before the first fix
// the push pump exited silently and the replica froze forever.
func TestLaggedSubscriberGetsFinalPush(t *testing.T) {
	addr, eng, _, srv := harnessSrv(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("laggy")
	if err != nil {
		t.Fatal(err)
	}
	doc := util.ID(docID)
	srvDoc, err := eng.OpenDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.InsertText("host", 0, "hello"); err != nil {
		t.Fatal(err)
	}

	// A raw connection whose socket we deliberately stop reading, so pushed
	// events pile up.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	codec := protocol.NewCodec(nc)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	next := func() *protocol.Message {
		t.Helper()
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("connection died while draining: %v", err)
		}
		return m
	}
	nextPush := func() *protocol.Event {
		t.Helper()
		for {
			if m := next(); m.Type == protocol.TypePush && m.Event != nil {
				return m.Event
			}
		}
	}
	for id, req := range []*protocol.Message{
		{Op: protocol.OpHello, Ver: protocol.VersionMax},
		{Op: protocol.OpLogin, User: "sloth"},
		{Op: protocol.OpSubscribe, Doc: docID},
	} {
		req.Type, req.ID = protocol.TypeRequest, int64(id+1)
		if err := codec.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	var base *protocol.Event
	for base == nil {
		switch m := next(); {
		case m.Type == protocol.TypeResponse && m.Err != "":
			t.Fatalf("request %d failed: %s", m.ID, m.Err)
		case m.Type == protocol.TypePush:
			base = m.Event
		}
	}
	if base.Kind != protocol.EvResync || base.Doc != docID || base.Text != "hello" || base.Name != "" || base.N != 0 {
		t.Fatalf("first push %+v, want the base holding \"hello\"", base)
	}
	if want := eng.Bus().Seq(doc); base.Seq != want {
		t.Fatalf("base at seq %d, want %d: after the subscriber's join", base.Seq, want)
	}

	// Flood the document's bus without reading the socket: the
	// connection's transmit path fills up, the ring evicts events the
	// pump's cursor has not reached, Next returns a gap marker (the
	// subscription stays attached), and the pump owes this peer a base.
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}

	// Drain until the gap's base arrives; the next push is the roster.
	ev := nextPush()
	for ev.Kind != protocol.EvResync {
		ev = nextPush()
	}
	if ev.Doc != docID || ev.Text != "hello" {
		t.Fatalf("base for the gap %+v, want doc %d holding \"hello\"", ev, docID)
	}
	if ev.Name != protocol.LaggedRingMiss || ev.N <= 0 {
		t.Fatalf("base for the gap names %q over %d events, want %q over some",
			ev.Name, ev.N, protocol.LaggedRingMiss)
	}
	bases := 1
	roster := nextPush()
	if roster.Kind != protocol.EvPresence || roster.Doc != docID {
		t.Fatalf("push after the base is %q for doc %d, want the presence snapshot", roster.Kind, roster.Doc)
	}
	users := map[string]bool{}
	for _, it := range roster.Batch {
		users[it.Text] = true
	}
	for _, u := range []string{"sloth", "flood"} {
		if !users[u] {
			t.Fatalf("presence snapshot %+v misses %q", roster.Batch, u)
		}
	}

	// Events flow again on the same subscription. The backlog may still be
	// draining: a probe the ring evicts before the pump reaches it falls
	// into a second gap, which another base answers — probe again whenever
	// one is seen.
	probe := func() { eng.Bus().MoveCursor(doc, "flood", 424242, now) }
	probe()
	for {
		ev := nextPush()
		switch {
		case ev.Kind == protocol.EvResync:
			bases++
			probe()
		case ev.Kind == "cursor" && ev.Pos == 424242:
			if heals := srv.metrics.Heals.Load(); int64(bases) != heals {
				t.Fatalf("%d bases for %d gaps", bases, heals)
			}
			return
		}
	}
}
