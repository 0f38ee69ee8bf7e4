package protocol

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
)

func pipeCodecs(t *testing.T) (*Codec, *Codec) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewCodec(a), NewCodec(b)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

func TestSendRecvRoundTrip(t *testing.T) {
	ca, cb := pipeCodecs(t)
	want := &Message{
		Type: TypeRequest, ID: 7, Op: OpInsert, Doc: 3, Pos: 12,
		Text: "hello\nworld — ünïcode", N: 2,
		Clip: &Clip{Text: "x", SrcDoc: 9, SrcChars: []uint64{1, 2, 3}},
	}
	done := make(chan *Message, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- m
	}()
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil {
		t.Fatal("recv failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestNewlineInTextSurvives(t *testing.T) {
	// The framing is newline-delimited JSON; embedded newlines in payloads
	// must survive (JSON escapes them).
	ca, cb := pipeCodecs(t)
	go ca.Send(&Message{Type: TypePush, Event: &Event{Text: "line1\nline2\n"}})
	m, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Event.Text != "line1\nline2\n" {
		t.Fatalf("text = %q", m.Event.Text)
	}
}

func TestRecvGarbageFails(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	cb := NewCodec(b)
	defer cb.Close()
	go func() {
		a.Write([]byte("this is not json\n"))
	}()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestRecvEOF(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	a.Close()
	if _, err := cb.Recv(); err != io.EOF && err != io.ErrUnexpectedEOF && err != io.ErrClosedPipe {
		// net.Pipe returns io.ErrClosedPipe on the peer side.
		if err == nil {
			t.Fatal("recv on closed pipe succeeded")
		}
	}
	cb.Close()
}

func TestConcurrentSends(t *testing.T) {
	ca, cb := pipeCodecs(t)
	const n = 50
	recvDone := make(chan int, 1)
	go func() {
		count := 0
		for count < n {
			if _, err := cb.Recv(); err != nil {
				break
			}
			count++
		}
		recvDone <- count
	}()
	sendDone := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < n/2; i++ {
				if err := ca.Send(&Message{Type: TypePush, Op: "x", ID: int64(g*1000 + i)}); err != nil {
					sendDone <- err
					return
				}
			}
			sendDone <- nil
		}(g)
	}
	for i := 0; i < 2; i++ {
		if err := <-sendDone; err != nil {
			t.Fatal(err)
		}
	}
	if got := <-recvDone; got != n {
		t.Fatalf("received %d of %d messages", got, n)
	}
}

// TestRecvBufferBounded pins the receive buffer's bound: a frame the
// buffer cannot hold grows it, a frame that fills at least a quarter of it
// keeps it, and the first frame that fills less gives it up, so a
// full-text resync does not leave its megabyte pinned to the connection.
func TestRecvBufferBounded(t *testing.T) {
	resync := func(n int) *Message {
		return &Message{Type: TypeResponse, ID: 1, OK: true, Full: true, Text: strings.Repeat("x", n)}
	}
	frames := []struct {
		m       *Message
		wantCap func(c int) bool
		want    string
	}{
		{resync(1 << 20), func(c int) bool { return c >= 1<<20 }, "grown to the frame"},
		{resync(1 << 18), func(c int) bool { return c >= 1<<20 }, "kept: the frame fills a quarter"},
		{hotFrames[0].m, func(c int) bool { return c == 0 }, "given up"},
		{hotFrames[1].m, func(c int) bool { return c == minRecvBuf }, "back to the least capacity"},
		{hotFrames[2].m, func(c int) bool { return c == minRecvBuf }, "kept at the least capacity"},
	}
	var stream bytes.Buffer
	sizes := make([]int, len(frames))
	for i, f := range frames {
		sizes[i], _ = stream.Write(EncodeBinaryFrame(f.m))
	}
	codec := NewCodec(rwc{Reader: &stream})
	var m Message
	for i, f := range frames {
		if err := codec.RecvInto(&m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&m, f.m) {
			t.Fatalf("frame %d decoded to %s, want %s", i, canon(t, &m), canon(t, f.m))
		}
		if c := cap(codec.rbuf); !f.wantCap(c) {
			t.Errorf("after frame %d (%d bytes), the receive buffer holds %d bytes, want %s",
				i, sizes[i], c, f.want)
		}
	}
}
