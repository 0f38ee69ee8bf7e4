package server

import (
	"net"
	"testing"
	"time"

	"tendax/internal/protocol"
	"tendax/internal/util"
)

// TestLaggedSubscriberGetsFinalPush forces a subscriber further behind
// than the document's op ring reaches, then verifies the server (a)
// pushes a "lagged" event naming the ring miss so the client knows it must
// resync, (b) follows it with the presence snapshot the gap's coalesced
// join/leave/cursor events were lost from, and (c) keeps delivering on the
// same connection after the client's resubscribe (a no-op: the
// subscription stays attached through the gap). Before the first fix the
// push pump exited silently and a resubscribe was swallowed as a
// duplicate — the replica froze forever.
func TestLaggedSubscriberGetsFinalPush(t *testing.T) {
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("laggy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Open(docID); err != nil {
		t.Fatal(err)
	}

	// A raw connection whose socket we deliberately stop reading, so pushed
	// events pile up. Its receive buffer keeps the system default: shrunk
	// to 4 KiB, far below the loopback segment size, the connection could
	// stall with the re-subscribe response sent but never delivered, every
	// server goroutine idle, until the read deadline fired.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	codec := protocol.NewCodec(nc)
	call := func(id int64, req *protocol.Message) *protocol.Message {
		t.Helper()
		req.Type = protocol.TypeRequest
		req.ID = id
		if err := codec.Send(req); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := codec.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == protocol.TypeResponse && m.ID == id {
				if m.Err != "" {
					t.Fatalf("request %d failed: %s", id, m.Err)
				}
				return m
			}
		}
	}
	call(1, &protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax})
	call(2, &protocol.Message{Op: protocol.OpLogin, User: "sloth"})
	call(3, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})

	// Flood the document's bus without reading the socket: the
	// connection's transmit path fills up, the ring evicts events the
	// pump's cursor has not reached, Next returns a gap marker (the
	// subscription stays attached), and the pump owes this peer a lagged
	// push for the gap.
	doc := util.ID(docID)
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}

	// Drain until the lagged notice arrives; the next push is the roster.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	next := func() *protocol.Event {
		t.Helper()
		for {
			m, err := codec.Recv()
			if err != nil {
				t.Fatalf("connection died while draining: %v", err)
			}
			if m.Type == protocol.TypePush && m.Event != nil {
				return m.Event
			}
		}
	}
	ev := next()
	for ev.Kind != protocol.EvLagged {
		ev = next()
	}
	if ev.Doc != docID {
		t.Fatalf("lagged push for doc %d, want %d", ev.Doc, docID)
	}
	if ev.Name != protocol.LaggedRingMiss || ev.N <= 0 {
		t.Fatalf("lagged push for the gap names %q over %d events, want %q over some",
			ev.Name, ev.N, protocol.LaggedRingMiss)
	}
	roster := next()
	if roster.Kind != protocol.EvPresence || roster.Doc != docID {
		t.Fatalf("push after the lagged one is %q for doc %d, want the presence snapshot", roster.Kind, roster.Doc)
	}
	users := map[string]bool{}
	for _, it := range roster.Batch {
		users[it.Text] = true
	}
	for _, u := range []string{"host", "sloth", "flood"} {
		if !users[u] {
			t.Fatalf("presence snapshot %+v misses %q", roster.Batch, u)
		}
	}

	// Resubscribing on the same connection works and events flow again. The
	// backlog may still be draining: a probe the ring evicts before the
	// pump reaches it falls into a second gap, which another lagged push
	// announces — probe again whenever one is seen.
	call(4, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})
	probe := func() { eng.Bus().MoveCursor(doc, "flood", 424242, now) }
	probe()
	for {
		ev := next()
		switch {
		case ev.Kind == protocol.EvLagged:
			probe()
		case ev.Kind == "cursor" && ev.Pos == 424242:
			return
		}
	}
}
