// A raw wire-level test client: every frame it receives is inspectable.
package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"tendax/internal/protocol"
)

// wireConn is a raw wire-level client that sends exactly the requests a
// test gives it and keeps the pushes it receives while waiting for
// responses.
type wireConn struct {
	t     *testing.T
	codec *protocol.Codec
	next  int64
	// pushes received while waiting for responses, in arrival order.
	pushes []*protocol.Event
}

// dialRaw opens a connection that has sent nothing, not even a hello.
func dialRaw(t *testing.T, addr string) *wireConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireConn{t: t, codec: protocol.NewCodec(nc)}
	t.Cleanup(func() { w.codec.Close() })
	return w
}

// wireAt opens a raw connection that has said hello and logged in as user.
func wireAt(t *testing.T, addr, user, pw string) *wireConn {
	t.Helper()
	w := dialRaw(t, addr)
	if got := w.call(&protocol.Message{Op: protocol.OpHello, Ver: protocol.VersionMax}).Ver; got != protocol.Version3 {
		t.Fatalf("hello: answered v%d, want v3", got)
	}
	w.call(&protocol.Message{Op: protocol.OpLogin, User: user, Password: pw})
	return w
}

// subscribeWire is wireAt subscribed to doc.
func subscribeWire(t *testing.T, addr string, doc uint64, user, pw string) *wireConn {
	t.Helper()
	w := wireAt(t, addr, user, pw)
	w.call(&protocol.Message{Op: protocol.OpSubscribe, Doc: doc})
	return w
}

// call sends m and returns its response, failing the test on an error
// response.
func (w *wireConn) call(m *protocol.Message) *protocol.Message {
	w.t.Helper()
	resp := w.callErr(m)
	if resp.Err != "" {
		w.t.Fatalf("%s: %s", m.Op, resp.Err)
	}
	return resp
}

// callErr is call for requests whose error response is the point: it
// returns the correlated response without failing the test on Err.
func (w *wireConn) callErr(m *protocol.Message) *protocol.Message {
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
			return resp
		}
	}
}

// drainTo collects pushes until the subscriber has seen event seq of doc.
func (w *wireConn) drainTo(doc, seq uint64) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.call(&protocol.Message{Op: protocol.OpPresence, Doc: doc})
		var max uint64
		for _, ev := range w.pushes {
			if ev.Seq > max {
				max = ev.Seq
			}
		}
		if max >= seq {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("subscriber stuck at seq %d, want %d", max, seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eventTexts flattens everything text-like in evs.
func eventTexts(evs []*protocol.Event) string {
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev.Text)
		sb.WriteByte('\n')
		for _, it := range ev.Batch {
			sb.WriteString(it.Text)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
