package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/util"
)

// TestLaggedSubscriberGetsFinalPush forces a v1 subscriber further behind
// than the document's op ring reaches, then verifies the server (a)
// pushes a "lagged" event so the client knows it must resync, and (b) keeps
// delivering on the same connection after the client's resubscribe (a
// no-op: the subscription stays attached through the gap). Before the
// first fix the push pump exited silently and a resubscribe was swallowed
// as a duplicate — the replica froze forever. A v1 library replica is sent
// a batch it cannot fold the same way, and names "lagged" as the cause of
// the resync that follows.
func TestLaggedSubscriberGetsFinalPush(t *testing.T) {
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("laggy")
	if err != nil {
		t.Fatal(err)
	}
	hd, err := host.Open(docID)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var causes []string
	hd.Watch(func(ev protocol.Event) {
		if ev.Kind == "resync" {
			mu.Lock()
			causes = append(causes, ev.Name)
			mu.Unlock()
		}
	})

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
	call(1, &protocol.Message{Op: protocol.OpLogin, User: "sloth"})
	call(2, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})

	// Flood the document's bus without reading the socket: the
	// connection's transmit path fills up, the ring evicts events the
	// pump's cursor has not reached, Next returns a gap marker (the
	// subscription stays attached), and the pump owes this v1 peer a
	// lagged push for the gap.
	doc := util.ID(docID)
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}

	// Drain until the lagged notice arrives.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	sawLagged := false
	for !sawLagged {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("connection died before the lagged push: %v", err)
		}
		if m.Type == protocol.TypePush && m.Event != nil && m.Event.Kind == protocol.EvLagged {
			sawLagged = true
			if m.Event.Doc != docID {
				t.Fatalf("lagged push for doc %d, want %d", m.Event.Doc, docID)
			}
			if m.Event.Name != protocol.LaggedRingMiss || m.Event.N <= 0 {
				t.Fatalf("lagged push for the gap names %q over %d events, want %q over some",
					m.Event.Name, m.Event.N, protocol.LaggedRingMiss)
			}
		}
	}

	// Resubscribing on the same connection works and events flow again. The
	// backlog may still be draining: a probe the ring evicts before the
	// pump reaches it falls into a second gap, which another lagged push
	// announces — probe again whenever one is seen.
	call(3, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})
	probe := func() { eng.Bus().MoveCursor(doc, "flood", 424242, now) }
	probe()
flowing:
	for {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("no events after resubscribe: %v", err)
		}
		if m.Type != protocol.TypePush || m.Event == nil {
			continue
		}
		switch {
		case m.Event.Kind == protocol.EvLagged:
			probe()
		case m.Event.Kind == "cursor" && m.Event.Pos == 424242:
			break flowing
		}
	}

	// The library replica: once it has caught up with the flood, a two-op
	// batch reaches this v1 subscriber as a lagged push, and the replica
	// resyncs onto it, naming "lagged" as the cause. The raw v1 connection
	// gets the same push, whose Name says a batch, not a ring miss, made it.
	srvDoc, err := eng.OpenDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDoc.InsertText("ghost", 0, "ab"); err != nil {
		t.Fatal(err)
	}
	if err := hd.WaitSeq(eng.Bus().Seq(doc), 5000); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	seen := len(causes)
	mu.Unlock()
	if _, err := srvDoc.Apply("ghost", []core.EditOp{
		{Kind: core.EditInsert, Pos: 0, Text: "x"},
		{Kind: core.EditDelete, Pos: 1, N: 1},
	}); err != nil {
		t.Fatal(err)
	}
	want := srvDoc.Text()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("no lagged push for the batch: %v", err)
		}
		if m.Type == protocol.TypePush && m.Event != nil && m.Event.Kind == protocol.EvLagged &&
			m.Event.Name == protocol.LaggedBatch {
			break
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got := append([]string(nil), causes[seen:]...)
		mu.Unlock()
		if hd.Text() == want && len(got) > 0 {
			if got[0] != "lagged" {
				t.Fatalf("v1 replica resynced onto a batch for %q, want lagged", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("v1 replica %q never resynced onto the batch (causes %q)", hd.Text(), got)
		}
	}
}
